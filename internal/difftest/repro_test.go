package difftest

import (
	"context"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"zac/internal/compiler"
	"zac/internal/core"
	"zac/internal/qasm"
)

// reproDir holds the checked-in regression corpus: minimized repros of
// divergences the seeded-violation stubs once produced. Each file replays
// through the real registry and must be clean — the corpus pins the
// shrinker's output shape and guards the real compilers against ever
// reintroducing a divergence on these exact inputs.
const reproDir = "testdata/repros"

// readCorpus lists the .qasm repro files of a corpus directory in sorted
// order. A missing directory is an empty corpus, not an error.
func readCorpus(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".qasm") {
			continue
		}
		out = append(out, filepath.Join(dir, e.Name()))
	}
	sort.Strings(out)
	return out, nil
}

// TestRegenerateReproCorpus rebuilds testdata/repros from the seeded
// violation stubs. Gated behind an env var because it rewrites checked-in
// files; run `DIFFTEST_REGEN_CORPUS=1 go test -run TestRegenerateReproCorpus
// ./internal/difftest` after changing the shrinker or the stub recipes.
func TestRegenerateReproCorpus(t *testing.T) {
	if os.Getenv("DIFFTEST_REGEN_CORPUS") == "" {
		t.Skip("set DIFFTEST_REGEN_CORPUS=1 to regenerate testdata/repros")
	}
	if err := os.RemoveAll(reproDir); err != nil {
		t.Fatal(err)
	}
	// Every planted bug is input-dependent (it only fires above a
	// structural threshold), so the shrinker must keep enough circuit to
	// preserve the trigger — the checked-in repros stay non-trivial.
	recipes := []struct {
		comps []compiler.Compiler
		spec  string
		label string
	}{
		{[]compiler.Compiler{&stubCompiler{
			inner: mustGet(t, "zac"), name: "stub-acct",
			corrupt: func(res *core.Result, _ int) {
				if res.TotalMoves >= 8 {
					res.TotalMoves++
				}
			},
		}}, "shuffle:n=10,depth=4,seed=7", "seeded-acct"},
		{[]compiler.Compiler{&stubCompiler{
			inner: mustGet(t, "zac"), name: "stub-det",
			corrupt: func(res *core.Result, call int) {
				if call%2 == 0 && res.NumJobs >= 3 {
					res.Breakdown.Total *= 0.999
				}
			},
		}}, "rb:n=8,depth=6,seed=7", "seeded-det"},
		{[]compiler.Compiler{mustGet(t, "zac-vanilla"), &stubCompiler{
			inner: mustGet(t, "zac"), name: "zac",
			corrupt: func(res *core.Result, _ int) {
				if res.TotalMoves >= 4 {
					res.Breakdown.Total *= 0.5
				}
			},
		}}, "qaoa:n=10,p=2,seed=7", "seeded-fid"},
		{[]compiler.Compiler{&stubCompiler{
			inner: mustGet(t, "zac"), name: "stub-sane",
			corrupt: func(res *core.Result, _ int) {
				if res.NumRydbergStages >= 2 {
					res.Breakdown.Total = 1.5
				}
			},
		}}, "ising:n=10,layers=2", "seeded-sane"},
	}
	for _, r := range recipes {
		o := NewWith(r.comps, Options{CorpusDir: reproDir})
		divs, err := o.Check(context.Background(), genCircuit(t, r.spec), r.label)
		if err != nil {
			t.Fatal(err)
		}
		if len(divs) == 0 {
			t.Fatalf("%s: recipe produced no divergence", r.label)
		}
	}
	paths, err := readCorpus(reproDir)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("regenerated %d repros", len(paths))
}

// TestReproCorpus replays every checked-in repro through the full real
// registry oracle: the real compilers must be clean on inputs that once
// diverged under seeded bugs, and each file must stay a small, parseable
// repro.
func TestReproCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("replays the corpus through the whole registry; skipped in -short")
	}
	paths, err := readCorpus(reproDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatalf("no repros in %s (run TestRegenerateReproCorpus with DIFFTEST_REGEN_CORPUS=1)", reproDir)
	}
	o, err := New(Options{NoShrink: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		p := p
		t.Run(filepath.Base(p), func(t *testing.T) {
			data, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			src := string(data)
			if !strings.Contains(src, "// class:") {
				t.Errorf("%s missing the class header comment", p)
			}
			c, err := qasm.Parse(src)
			if err != nil {
				t.Fatalf("repro does not parse: %v", err)
			}
			if len(c.Gates) > 20 {
				t.Errorf("repro has %d gates; the shrinker should keep these ≤ 20", len(c.Gates))
			}
			divs, err := o.Check(context.Background(), c, filepath.Base(p))
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range divs {
				t.Errorf("real registry diverges on checked-in repro: %s", d)
			}
		})
	}
}

// FuzzDiff is the native fuzz harness over the differential oracle: any
// QASM input the mutator invents must produce zero divergences across the
// zac ablation family. Seeded from the repro corpus plus a pinned spec.
// Run with `go test -fuzz=FuzzDiff ./internal/difftest`.
func FuzzDiff(f *testing.F) {
	paths, err := readCorpus(reproDir)
	if err != nil {
		f.Fatal(err)
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(data))
	}
	f.Add(qasm.Write(genCircuit(f, "rb:n=6,depth=4,seed=7")))
	o, err := New(Options{
		Compilers: []string{"zac", "zac-vanilla", "zac-dynplace", "zac-dynplace-reuse", "zac-advreuse"},
		NoShrink:  true,
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, src string) {
		c, err := qasm.Parse(src)
		if err != nil {
			t.Skip()
		}
		if c.NumQubits < 1 || c.NumQubits > 16 || len(c.Gates) == 0 || len(c.Gates) > 200 {
			t.Skip() // keep per-exec cost bounded
		}
		divs, err := o.Check(context.Background(), c, "fuzz-input")
		if err != nil {
			t.Skip()
		}
		for _, d := range divs {
			t.Errorf("divergence: %s", d)
		}
	})
}
