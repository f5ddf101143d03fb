package compiler

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"zac/internal/arch"
	"zac/internal/bench"
	"zac/internal/circuit"
	"zac/internal/core"
	"zac/internal/engine"
	"zac/internal/resynth"
)

// conformanceSubset mirrors the golden determinism corpus (bench_test.go,
// internal/core/determinism_test.go).
var conformanceSubset = []string{"bv_n14", "ghz_n23", "ising_n42", "qft_n18", "wstate_n27"}

// stagedFor shapes a benchmark's input the way the evaluation harness does:
// split to the zoned reference capacity for splitters, flat for the rest.
func stagedFor(t *testing.T, c Compiler, name string) *circuit.Staged {
	t.Helper()
	b, err := bench.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	staged, err := resynth.Preprocess(b.Build())
	if err != nil {
		t.Fatal(err)
	}
	if WantsSplit(c) {
		staged = circuit.SplitRydbergStages(staged, arch.Reference().TotalSites())
	}
	return staged
}

// resultHash digests the observable output of a compilation: the program,
// the statistics, and the fidelity breakdown.
func resultHash(t *testing.T, r *core.Result) string {
	t.Helper()
	data, err := json.Marshal(struct {
		Program any
		Stats   any
		Brk     any
	}{r.Program, r.Stats, r.Breakdown})
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// TestRegistryConformance is the registry-wide contract: every registered
// compiler compiles the 5-circuit determinism subset, returns a non-nil
// Program with sane Stats and fidelity, reports per-pass timings, and is
// deterministic across two runs with independent artifact caches.
func TestRegistryConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the five-circuit subset with every registered compiler; skipped in -short")
	}
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			c, err := Get(name)
			if err != nil {
				t.Fatal(err)
			}
			if c.Name() != name {
				t.Fatalf("Name() = %q, registered as %q", c.Name(), name)
			}
			target := TargetArch(c)
			for _, bn := range conformanceSubset {
				hashes := make([]string, 2)
				for run := 0; run < 2; run++ {
					// Fresh artifact cache per run: determinism must not
					// lean on sharing one memoized plan.
					arts := NewArtifacts(engine.NewTiered(0))
					staged := stagedFor(t, c, bn)
					r, err := c.Compile(context.Background(), staged, target, Options{Key: bn, Artifacts: arts})
					if err != nil {
						t.Fatalf("%s run %d: %v", bn, run, err)
					}
					if r.Program == nil {
						t.Fatalf("%s: nil Program", bn)
					}
					if r.Program.NumQubits != staged.NumQubits {
						t.Errorf("%s: program has %d qubits, staged %d", bn, r.Program.NumQubits, staged.NumQubits)
					}
					if r.Stats.Busy == nil || r.Stats.Duration <= 0 {
						t.Errorf("%s: stats not populated: %+v", bn, r.Stats)
					}
					if r.Breakdown.Total <= 0 || r.Breakdown.Total > 1 {
						t.Errorf("%s: fidelity %v outside (0,1]", bn, r.Breakdown.Total)
					}
					if len(r.Passes) == 0 {
						t.Errorf("%s: no pass timings", bn)
					}
					hashes[run] = resultHash(t, r)
				}
				if hashes[0] != hashes[1] {
					t.Errorf("%s: nondeterministic output across runs:\n  %s\n  %s", bn, hashes[0], hashes[1])
				}
			}
		})
	}
}

// TestAliasesResolve pins the Fig. 11 legend spellings (and case
// variations) to their canonical compilers.
func TestAliasesResolve(t *testing.T) {
	for alias, want := range map[string]string{
		core.SettingVanilla:         "zac-vanilla",
		core.SettingDynPlace:        "zac-dynplace",
		core.SettingDynPlaceReuse:   "zac-dynplace-reuse",
		core.SettingSADynPlaceReuse: "zac",
		"ZAC":                       "zac",
		"  Enola ":                  "enola",
	} {
		c, err := Get(alias)
		if err != nil {
			t.Errorf("Get(%q): %v", alias, err)
			continue
		}
		if c.Name() != want {
			t.Errorf("Get(%q) = %s, want %s", alias, c.Name(), want)
		}
	}
	if _, err := Get("no-such-compiler"); err == nil {
		t.Error("unknown compiler resolved")
	}
}

// TestZACMatchesCompileStaged pins the registry's zac compiler to
// core.CompileStaged: same staged input, byte-identical program.
func TestZACMatchesCompileStaged(t *testing.T) {
	b, err := bench.ByName("bv_n14")
	if err != nil {
		t.Fatal(err)
	}
	staged, err := resynth.Preprocess(b.Build())
	if err != nil {
		t.Fatal(err)
	}
	a := arch.Reference()
	direct, err := core.CompileStaged(staged, a, core.Default())
	if err != nil {
		t.Fatal(err)
	}
	zc, err := Get("zac")
	if err != nil {
		t.Fatal(err)
	}
	viaRegistry, err := zc.Compile(context.Background(), staged, a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(direct.Program)
	got, _ := json.Marshal(viaRegistry.Program)
	if string(want) != string(got) {
		t.Fatal("registry zac output differs from core.CompileStaged")
	}
}

// TestArtifactsSharedAcrossCompilers verifies the pass-artifact cache's
// whole point: three compilers asking for the same staged circuit trigger
// one preprocessing computation, and two zac compilations of the same
// (circuit, arch, options) share one placement.
func TestArtifactsSharedAcrossCompilers(t *testing.T) {
	arts := NewArtifacts(engine.NewTiered(0))
	builds := 0
	build := func() (*circuit.Staged, error) {
		builds++
		return resynth.Preprocess(bench.GHZ(8))
	}
	for i := 0; i < 3; i++ {
		if _, err := arts.Staged("ghz8", 0, build); err != nil {
			t.Fatal(err)
		}
	}
	if builds != 1 {
		t.Errorf("staged artifact built %d times, want 1", builds)
	}

	staged, err := arts.Staged("ghz8", 0, build)
	if err != nil {
		t.Fatal(err)
	}
	// The first zac compile computes the plan; a second one with the same
	// key must reuse the memoized plan and flag its place pass as cached.
	zc, err := Get("zac")
	if err != nil {
		t.Fatal(err)
	}
	for i, wantCached := range []bool{false, true} {
		r, err := zc.Compile(context.Background(), staged, arch.Reference(), Options{Key: "ghz8", Artifacts: arts})
		if err != nil {
			t.Fatal(err)
		}
		places := 0
		for _, p := range r.Passes {
			if p.Pass == "place" {
				places++
				if p.Cached != wantCached {
					t.Errorf("compile %d: place pass cached = %v, want %v", i+1, p.Cached, wantCached)
				}
			}
		}
		if places != 1 {
			t.Errorf("compile %d: %d place passes, want 1", i+1, places)
		}
	}
}

// TestCompileCancelled verifies cancellation propagates through the
// pipeline for every registered compiler.
func TestCompileCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, name := range Names() {
		c, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		staged := stagedFor(t, c, "bv_n14")
		if _, err := c.Compile(ctx, staged, TargetArch(c), Options{}); err == nil {
			t.Errorf("%s: cancelled compile succeeded", name)
		}
	}
}
