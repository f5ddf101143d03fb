package experiments

import (
	"context"
	"fmt"

	"zac/internal/engine"
)

// Config controls how an experiment executes. The zero value runs fully
// parallel (one worker per CPU) with the compilation cache enabled;
// Parallel 1 runs on one worker. The result rows are identical for
// every worker count because the engine assembles them by input index, not
// arrival order.
type Config struct {
	// Parallel is the worker-pool size: ≤ 0 selects runtime.NumCPU(),
	// 1 runs strictly sequentially on the calling goroutine.
	Parallel int
	// NoCache bypasses the process-wide compilation cache, recompiling
	// every (circuit, compiler, architecture) combination from scratch —
	// the seed's sequential behavior, kept for benchmarking the engine
	// against it.
	NoCache bool
	// Progress, when non-nil, receives a one-line message as each unit of
	// work completes.
	Progress func(msg string)
	// SARestarts, when positive, overrides the ZAC-family initial-placement
	// restart count (independent annealing chains, best kept). Values > 1
	// change compiled outputs; the cache key (compiler.Key) carries the
	// resolved count, so 0 and 1 (both a single chain) share one entry.
	SARestarts int
	// Workers bounds each compilation's intra-compile parallelism (0 = all
	// cores). Speed-only: it never changes outputs and stays out of every
	// cache key.
	Workers int
}

func (c Config) progressf(format string, args ...any) {
	if c.Progress != nil {
		c.Progress(fmt.Sprintf(format, args...))
	}
}

// compileCache memoizes every compilation the harness performs, keyed by
// compiler.Key, plus the staged circuits they compile, so circuits shared
// across experiments — e.g. the representative subset reused by
// Fig8/Fig9/Fig10/Table2 — compile once per process. The LRU is sized far
// above the full suite's entry count. It is memory-only: recompiling the
// whole paper suite takes about a second, less than reading it back from
// disk, so results always carry their placement plan and staged circuit.
var compileCache = engine.NewTiered(8192)

// cached routes a computation through the process-wide cache unless the
// config opted out.
func cached[T any](cfg Config, key string, compute func() (T, error)) (T, error) {
	if cfg.NoCache {
		return compute()
	}
	return engine.GetTiered(compileCache, key, nil, compute)
}

// ResetCache drops every cached compilation. Benchmarks call it to measure
// cold-cache behavior; servers can call it to bound memory.
//
//zac:keep the suite benchmarks in bench_test.go start every iteration cold
func ResetCache() { compileCache.Reset() }

// CacheStats reports the compilation cache's hit/miss counters.
func CacheStats() engine.TieredStats { return compileCache.Stats() }

// mapRows is the harness's fan-out primitive: it runs fn(i) for every index
// through the bounded worker pool and returns the results in input order.
func mapRows[T any](ctx context.Context, cfg Config, n int, fn func(i int) (T, error)) ([]T, error) {
	return engine.Map(ctx, cfg.Parallel, n, fn)
}
