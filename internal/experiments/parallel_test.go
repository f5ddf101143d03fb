package experiments

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"

	"zac/internal/arch"
	"zac/internal/bench"
	"zac/internal/circuit"
	"zac/internal/compiler"
	"zac/internal/resynth"
)

// render flattens an experiment's tables to one comparable string.
func render(t *testing.T, tabs []*Table) string {
	t.Helper()
	var b strings.Builder
	for _, tab := range tabs {
		b.WriteString(tab.Render())
		b.WriteString(tab.CSV())
	}
	return b.String()
}

// TestParallelMatchesSequential is the engine's determinism contract: for
// every experiment whose values are model-derived (no wall-clock columns),
// an uncached sequential run and a cached 8-worker run must produce
// byte-identical tables.
func TestParallelMatchesSequential(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		id     string
		subset []string
	}{
		{"fig1c", fast},
		{"fig8", fast},
		{"fig9", fast},
		{"fig10", fast},
		{"fig11", fast},
		{"fig13", fast},
		{"table2", fast},
		{"zair", fast},
		{"nativeccz", []string{"multiply_n13"}},
	} {
		seqTabs, err := RunWith(ctx, Config{Parallel: 1, NoCache: true}, tc.id, tc.subset)
		if err != nil {
			t.Fatalf("%s sequential: %v", tc.id, err)
		}
		ResetCache()
		parTabs, err := RunWith(ctx, Config{Parallel: 8}, tc.id, tc.subset)
		if err != nil {
			t.Fatalf("%s parallel: %v", tc.id, err)
		}
		seq, par := render(t, seqTabs), render(t, parTabs)
		if seq != par {
			t.Errorf("%s: parallel output differs from sequential\n--- sequential ---\n%s\n--- parallel ---\n%s",
				tc.id, seq, par)
		}
	}
}

// TestParallelRace drives several experiments through a wide pool over
// overlapping cache keys; meaningful under `go test -race` (CI runs it so).
func TestParallelRace(t *testing.T) {
	ResetCache()
	ctx := context.Background()
	for _, id := range []string{"fig8", "fig9", "fig10"} {
		if _, err := RunWith(ctx, Config{Parallel: 8}, id, fast); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
}

// TestCacheHitAcrossExperiments is the tentpole's sharing guarantee: fig9
// and fig10 evaluate the same four neutral-atom compilers on the same
// circuits, so the second experiment must be served entirely from the cache.
func TestCacheHitAcrossExperiments(t *testing.T) {
	ResetCache()
	ctx := context.Background()
	if _, err := RunWith(ctx, Config{Parallel: 2}, "fig9", fast); err != nil {
		t.Fatal(err)
	}
	after9 := CacheStats()
	if after9.Misses == 0 {
		t.Fatal("fig9 on a cold cache must compile something")
	}
	if _, err := RunWith(ctx, Config{Parallel: 2}, "fig10", fast); err != nil {
		t.Fatal(err)
	}
	after10 := CacheStats()
	if after10.Misses != after9.Misses {
		t.Errorf("fig10 recompiled after fig9: misses %d → %d", after9.Misses, after10.Misses)
	}
	if hits := after10.Hits() - after9.Hits(); hits < uint64(len(fast)*len(naCols)) {
		t.Errorf("fig10 should hit the cache for every (circuit, compiler) cell: got %d hits", hits)
	}
}

// TestEqualConfigurationsShareCompiles: the cache key is the resolved
// configuration, not the label an experiment gives it. After CompilerSweep
// has compiled zac and zac-advreuse, AdvReuse's two columns are cache hits,
// and so are Sweep's δ=2, k=2, α=0.1 and SA=1000 cells, which all run the
// default configuration: Sweep misses once per circuit for each of its
// eight other cells.
func TestEqualConfigurationsShareCompiles(t *testing.T) {
	ResetCache()
	ctx := context.Background()
	cfg := Config{Parallel: 2}
	if _, err := CompilerSweep(ctx, cfg, fast, []string{"zac", "zac-advreuse"}); err != nil {
		t.Fatal(err)
	}
	before := CacheStats()
	if _, err := AdvReuse(ctx, cfg, fast); err != nil {
		t.Fatal(err)
	}
	if got := CacheStats().Misses - before.Misses; got != 0 {
		t.Errorf("AdvReuse after CompilerSweep: %d cache misses, want 0", got)
	}
	before = CacheStats()
	if _, err := Sweep(ctx, cfg, fast); err != nil {
		t.Fatal(err)
	}
	if got, want := CacheStats().Misses-before.Misses, uint64(8*len(fast)); got != want {
		t.Errorf("Sweep after CompilerSweep: %d cache misses, want %d (one per non-default cell)", got, want)
	}
}

// TestStagedSharedAcrossCompilers: compilers asking for the same input
// split to the same cap share one preprocessing computation.
func TestStagedSharedAcrossCompilers(t *testing.T) {
	ResetCache()
	builds := 0
	in := input{key: "ghz8", preprocess: func() (*circuit.Staged, error) {
		builds++
		return resynth.Preprocess(bench.GHZ(8))
	}}
	split := arch.Reference().TotalSites()
	for _, name := range []string{"zac", "enola", "nalac"} {
		c, err := compiler.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cachedCompile(context.Background(), Config{Parallel: 1}, c, compiler.Options{}, in, split, compiler.TargetArch(c)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if builds != 1 {
		t.Errorf("staged circuit built %d times, want 1", builds)
	}
}

// TestNoCacheBypassesCache ensures Config.NoCache skips the cache: a NoCache
// run after a populated cold run must not touch the counters.
func TestNoCacheBypassesCache(t *testing.T) {
	ResetCache()
	ctx := context.Background()
	if _, err := RunWith(ctx, Config{Parallel: 2}, "fig10", fast); err != nil {
		t.Fatal(err)
	}
	before := CacheStats()
	if _, err := RunWith(ctx, Config{Parallel: 2, NoCache: true}, "fig10", fast); err != nil {
		t.Fatal(err)
	}
	after := CacheStats()
	if after.Lookups() != before.Lookups() {
		t.Errorf("NoCache run performed cache lookups: %d → %d", before.Lookups(), after.Lookups())
	}
}

// TestRunWithCancelledContext verifies the pool aborts promptly when the
// caller cancels.
func TestRunWithCancelledContext(t *testing.T) {
	ResetCache()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunWith(ctx, Config{Parallel: 2}, "fig8", fast); err == nil {
		t.Fatal("cancelled context must fail the run")
	}
}

// TestProgressReported checks the progress sink receives one line per
// completed (circuit, compiler) cell.
func TestProgressReported(t *testing.T) {
	ResetCache()
	var lines atomic.Int32
	cfg := Config{Parallel: 2, Progress: func(string) { lines.Add(1) }}
	if _, err := RunWith(context.Background(), cfg, "fig10", fast); err != nil {
		t.Fatal(err)
	}
	if got, want := int(lines.Load()), len(fast)*len(naCols); got != want {
		t.Errorf("progress lines = %d, want %d", got, want)
	}
}

// sequential is the Config of a one-worker run.
func sequential() Config { return Config{Parallel: 1} }

// TestSequentialConfigDefault ensures sequential() pins one worker.
func TestSequentialConfigDefault(t *testing.T) {
	if sequential().Parallel != 1 {
		t.Fatal("sequential() must pin one worker")
	}
}

// TestNativeCCZHonorsSARestarts checks that both NativeCCZ columns compile
// with Config.SARestarts chains: under four restarts, each column's
// fidelity must equal a direct four-chain compile of its input.
func TestNativeCCZHonorsSARestarts(t *testing.T) {
	ctx := context.Background()
	const name = "seca_n11"
	tabs, err := NativeCCZ(ctx, Config{Parallel: 2, NoCache: true, SARestarts: 4}, []string{name})
	if err != nil {
		t.Fatal(err)
	}
	b, err := bench.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	zc, err := compiler.Get("zac")
	if err != nil {
		t.Fatal(err)
	}
	opts := compiler.Options{SARestarts: 4}
	ref, triple := arch.Reference(), arch.ReferenceTriple()
	cfg := Config{Parallel: 1, NoCache: true}
	decomposed, err := cachedCompile(ctx, cfg, zc, opts, benchInput(b), ref.TotalSites(), ref)
	if err != nil {
		t.Fatal(err)
	}
	native, err := cachedCompile(ctx, cfg, zc, opts, nativeCCZInput(b), triple.TotalSites(), triple)
	if err != nil {
		t.Fatal(err)
	}
	got := tabs[0].Rows[0].Values
	if got["decomposed"] != decomposed.Breakdown.Total {
		t.Errorf("decomposed fidelity %v, want the four-chain compile's %v", got["decomposed"], decomposed.Breakdown.Total)
	}
	if got["nativeCCZ"] != native.Breakdown.Total {
		t.Errorf("nativeCCZ fidelity %v, want the four-chain compile's %v", got["nativeCCZ"], native.Breakdown.Total)
	}
}
