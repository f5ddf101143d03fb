package benchsuite

import (
	"context"
	"runtime"
	"strings"
	"testing"
	"time"
)

// allocSink keeps the test kernel's allocation on the heap.
var allocSink []byte

// The runner end to end over a microsecond test kernel: record identity,
// sample counts, commit/fingerprint stamping, and allocation vectors.
func TestRunKernelCases(t *testing.T) {
	kernel := func() (func(context.Context) error, error) {
		return func(context.Context) error {
			allocSink = make([]byte, 256)
			return nil
		}, nil
	}
	cases := []Case{
		{Name: "test/alloc", Kind: KindMicro, InnerIters: 50, setup: kernel},
		{Name: "test/alloc_once", Kind: KindMicro, InnerIters: 1, setup: kernel},
	}
	now := time.Unix(12345, 0)
	records, err := Run(context.Background(), cases, RunConfig{
		Reps: 3, Warmup: 1, Commit: "deadbeef", Now: now,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != len(cases) {
		t.Fatalf("records = %d, want %d", len(records), len(cases))
	}
	fp := Machine()
	for i, r := range records {
		if r.Case != cases[i].Name {
			t.Errorf("record %d is %s, want %s (engine must assemble by index)", i, r.Case, cases[i].Name)
		}
		if len(r.NsPerOp) != 3 {
			t.Errorf("%s: %d samples, want 3", r.Case, len(r.NsPerOp))
		}
		for _, ns := range r.NsPerOp {
			if ns <= 0 {
				t.Errorf("%s: non-positive sample %v", r.Case, ns)
			}
		}
		if r.Commit != "deadbeef" || r.UnixTime != 12345 {
			t.Errorf("%s: stamp = %s@%d", r.Case, r.Commit, r.UnixTime)
		}
		if r.MachineID != fp.ID() || r.Machine != fp {
			t.Errorf("%s: fingerprint not stamped", r.Case)
		}
		if r.Schema != SchemaVersion || r.InnerIters != cases[i].InnerIters {
			t.Errorf("%s: schema/inner = %d/%d", r.Case, r.Schema, r.InnerIters)
		}
		if r.Procs != runtime.GOMAXPROCS(0) {
			t.Errorf("%s: procs = %d, want the ambient %d", r.Case, r.Procs, runtime.GOMAXPROCS(0))
		}
		// Allocation vectors ride along with every wall-clock sample, and
		// count at least the kernel's own 256-byte allocation per op.
		if len(r.BPerOp) != 3 || len(r.AllocsPerOp) != 3 {
			t.Errorf("%s: alloc vectors = %d/%d samples, want 3/3", r.Case, len(r.BPerOp), len(r.AllocsPerOp))
		}
		for i := range r.BPerOp {
			if r.BPerOp[i] < 256 || r.AllocsPerOp[i] < 1 {
				t.Errorf("%s: alloc sample %v B / %v allocs, want ≥ 256 / ≥ 1", r.Case, r.BPerOp[i], r.AllocsPerOp[i])
			}
		}
	}
}

// The compile matrix expands (specs × compilers × archs) with canonical
// names, and monolithic compilers skip forced-architecture cells.
func TestCompileMatrixExpansion(t *testing.T) {
	cases, err := Compile([]string{"rb:n=8,depth=4"}, []string{"zac"}, []string{"default", "triple"})
	if err != nil {
		t.Fatal(err)
	}
	if len(cases) != 2 {
		t.Fatalf("zac × {default,triple} = %d cases, want 2: %+v", len(cases), names(cases))
	}
	for _, c := range cases {
		if !strings.Contains(c.Name, "rb:n=8,depth=4,seed=1") {
			t.Errorf("case name %q lacks canonical spec", c.Name)
		}
		if c.ArchFP == "" {
			t.Errorf("case %q has no arch fingerprint", c.Name)
		}
	}
	// Baselines pin their own target: the forced-arch cell collapses.
	enola, err := Compile([]string{"rb:n=8,depth=4"}, []string{"enola"}, []string{"default", "triple"})
	if err != nil {
		t.Fatal(err)
	}
	if len(enola) != 1 || !strings.Contains(enola[0].Name, "/default/") {
		t.Fatalf("enola forced-arch cells = %v, want only default", names(enola))
	}

	if _, err := Compile([]string{"rb:n=8"}, []string{"zac"}, []string{"marsrover"}); err == nil {
		t.Error("unknown architecture accepted")
	}
	if _, err := Compile([]string{"nope:n=8"}, []string{"zac"}, nil); err == nil {
		t.Error("unknown workload family accepted")
	}
	if _, err := Compile([]string{"rb:n=8"}, []string{"not-a-compiler"}, nil); err == nil {
		t.Error("unknown compiler accepted")
	}
}

func names(cases []Case) []string {
	out := make([]string, len(cases))
	for i, c := range cases {
		out[i] = c.Name
	}
	return out
}

// One real compile cell through the runner: the smoke matrix's smallest
// spec through ZAC, sampled twice — the primary compile record followed by
// one pass record per pipeline pass, each with a full sample vector, so a
// gate regression can name the pass that caused it.
func TestRunCompileCase(t *testing.T) {
	if testing.Short() {
		t.Skip("compilation case in -short mode")
	}
	cases, err := Compile([]string{"rb:n=8,depth=4,seed=1"}, []string{"zac"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	records, err := Run(context.Background(), cases, RunConfig{Reps: 2, Warmup: 1, Commit: "c"})
	if err != nil {
		t.Fatal(err)
	}
	if len(records) == 0 || records[0].Kind != KindCompile || len(records[0].NsPerOp) != 2 {
		t.Fatalf("compile record = %+v", records)
	}
	wantPasses := []string{"validate", "place", "schedule", "emit", "fidelity"}
	if len(records) != 1+len(wantPasses) {
		t.Fatalf("got %d records, want compile + %d pass records: %+v", len(records), len(wantPasses), names2(records))
	}
	for i, pass := range wantPasses {
		r := records[1+i]
		want := records[0].Case + "/pass/" + pass
		if r.Case != want || r.Kind != KindPass {
			t.Errorf("pass record %d = %s (%s), want %s (%s)", i, r.Case, r.Kind, want, KindPass)
		}
		if len(r.NsPerOp) != 2 {
			t.Errorf("%s: %d samples, want 2", r.Case, len(r.NsPerOp))
		}
		if len(r.BPerOp) != 0 {
			t.Errorf("%s: pass records must not carry allocation vectors", r.Case)
		}
	}
}

func names2(records []Record) []string {
	out := make([]string, len(records))
	for i, r := range records {
		out[i] = r.Case
	}
	return out
}
