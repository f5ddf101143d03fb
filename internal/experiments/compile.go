package experiments

import (
	"context"
	"fmt"
	"time"

	"zac/internal/arch"
	"zac/internal/bench"
	"zac/internal/circuit"
	"zac/internal/compiler"
	"zac/internal/core"
	"zac/internal/fidelity"
	"zac/internal/resynth"
)

// naResult is the common evaluation shape the experiment tables consume:
// fidelity breakdown, circuit duration, and the wall-clock compile time
// (measured once, at the compilation that populated the cache entry).
type naResult struct {
	breakdown fidelity.Breakdown
	duration  float64 // µs
	compile   time.Duration
}

// toNA projects a unified compiler result onto the table shape.
func toNA(r *core.Result) naResult {
	return naResult{breakdown: r.Breakdown, duration: r.Duration, compile: r.CompileTime}
}

// input is one circuit the harness compiles: the key its cache entries
// carry and the preprocessing that stages it.
type input struct {
	key        string
	preprocess func() (*circuit.Staged, error)
}

// benchInput stages a benchmark with the standard preprocessing
// (resynthesis to {CZ,U3} + ASAP staging).
func benchInput(b bench.Benchmark) input {
	return input{key: b.Name, preprocess: func() (*circuit.Staged, error) {
		return resynth.Preprocess(b.Build())
	}}
}

// nativeCCZInput stages a benchmark with its Toffolis kept as native CCZ
// gates (resynth.PreprocessNativeCCZ).
func nativeCCZInput(b bench.Benchmark) input {
	return input{key: "ccz|" + b.Name, preprocess: func() (*circuit.Staged, error) {
		return resynth.PreprocessNativeCCZ(b.Build())
	}}
}

// cachedStaged preprocesses an input and splits its oversized Rydberg
// stages to splitSites (0 = flat, the superconducting routers' shape),
// through the process-wide cache: every compiler asking for the same
// shaping reads one instance.
func cachedStaged(cfg Config, in input, splitSites int) (*circuit.Staged, error) {
	return cached(cfg, fmt.Sprintf("staged|%s|split=%d", in.key, splitSites), func() (*circuit.Staged, error) {
		staged, err := in.preprocess()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", in.key, err)
		}
		return circuit.SplitRydbergStages(staged, splitSites), nil
	})
}

// cachedCompile compiles an input, staged and split to splitSites, with one
// registry compiler for a, through the process-wide cache. The cache key is
// compiler.Key, so experiments that run the same configuration on the same
// input share one compilation whatever preset or override spelled it.
func cachedCompile(ctx context.Context, cfg Config, c compiler.Compiler, opts compiler.Options, in input, splitSites int, a *arch.Architecture) (*core.Result, error) {
	return cached(cfg, compiler.Key(c, opts, in.key, splitSites, a), func() (*core.Result, error) {
		staged, err := cachedStaged(cfg, in, splitSites)
		if err != nil {
			return nil, err
		}
		r, err := c.Compile(ctx, staged, a, opts)
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", in.key, c.Name(), err)
		}
		return r, nil
	})
}

// compileZAC compiles a benchmark for a under an explicit ZAC configuration
// with the config's restart count and worker budget, its staging split to
// a's site capacity.
func compileZAC(ctx context.Context, cfg Config, b bench.Benchmark, a *arch.Architecture, co core.Options) (*core.Result, error) {
	zc, err := compiler.Get("zac")
	if err != nil {
		return nil, err
	}
	opts := compiler.Options{Core: &co, SARestarts: cfg.SARestarts, Workers: cfg.Workers}
	return cachedCompile(ctx, cfg, zc, opts, benchInput(b), a.TotalSites(), a)
}

// evalCompiler compiles one benchmark with one registry compiler (aliases
// such as the Fig. 11 setting names accepted) under the paper's evaluation
// setup: the compiler's default target architecture, and staged input
// split to the zoned reference capacity (the shaping every neutral-atom
// column shares) unless the compiler opts out.
func evalCompiler(ctx context.Context, cfg Config, name string, b bench.Benchmark) (naResult, error) {
	c, err := compiler.Get(name)
	if err != nil {
		return naResult{}, err
	}
	split := 0
	if compiler.WantsSplit(c) {
		split = arch.Reference().TotalSites()
	}
	opts := compiler.Options{SARestarts: cfg.SARestarts, Workers: cfg.Workers}
	r, err := cachedCompile(ctx, cfg, c, opts, benchInput(b), split, compiler.TargetArch(c))
	if err != nil {
		return naResult{}, err
	}
	return toNA(r), nil
}

// colCompilers maps the paper's column legends onto registry names.
var colCompilers = map[string]string{
	ColZAC:      "zac",
	ColNALAC:    "nalac",
	ColEnola:    "enola",
	ColAtomique: "atomique",
	ColSCHeron:  "sc-heron",
	ColSCGrid:   "sc-grid",
}

// evalCol evaluates one benchmark under one compiler column — the unit of
// work the experiment runners fan out over the pool. Every column resolves
// through the compiler registry; the four neutral-atom columns share the
// zoned-split staged circuit, exactly as the sequential harness did.
func evalCol(ctx context.Context, cfg Config, col string, b bench.Benchmark) (naResult, error) {
	name, ok := colCompilers[col]
	if !ok {
		return naResult{}, fmt.Errorf("experiments: unknown compiler column %q", col)
	}
	return evalCompiler(ctx, cfg, name, b)
}
