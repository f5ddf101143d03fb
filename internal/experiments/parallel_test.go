package experiments

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"
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

// TestSequentialConfigDefault ensures the zero worker count resolves to all
// CPUs and 1 stays sequential — Run() must remain the deterministic wrapper.
func TestSequentialConfigDefault(t *testing.T) {
	if Sequential().Parallel != 1 {
		t.Fatal("Sequential() must pin one worker")
	}
}
