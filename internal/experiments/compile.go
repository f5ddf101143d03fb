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

// cachedStaged preprocesses a benchmark (resynthesis to {CZ,U3} + ASAP
// staging) and splits oversized Rydberg stages to the architecture's site
// capacity, through the registry's shared pass-artifact cache: every
// compiler asking for the same shaping reads one instance.
func cachedStaged(cfg Config, b bench.Benchmark, split *arch.Architecture) (*circuit.Staged, error) {
	return cfg.artifacts().Staged(b.Name, split.TotalSites(), func() (*circuit.Staged, error) {
		staged, err := resynth.Preprocess(b.Build())
		if err != nil {
			return nil, fmt.Errorf("%s: %w", b.Name, err)
		}
		return staged, nil
	})
}

// cachedFlat preprocesses a benchmark without stage splitting — the input
// shape of the superconducting routers.
func cachedFlat(cfg Config, b bench.Benchmark) (*circuit.Staged, error) {
	return cfg.artifacts().Staged(b.Name, 0, func() (*circuit.Staged, error) {
		staged, err := resynth.Preprocess(b.Build())
		if err != nil {
			return nil, fmt.Errorf("%s: %w", b.Name, err)
		}
		return staged, nil
	})
}

// cachedZAC compiles a benchmark with a ZAC-family registry compiler under
// the given option preset. optKey must uniquely identify opts — the
// ablation setting name, a sweep configuration label, or "advReuse".
func cachedZAC(ctx context.Context, cfg Config, b bench.Benchmark, a *arch.Architecture, optKey string, opts core.Options) (*core.Result, error) {
	key := "zac|" + b.Name + "|arch=" + a.Fingerprint() + "|opt=" + optKey
	if cfg.SARestarts > 1 {
		// Extra restarts change the plan, so they change the result
		// identity; the suffix is conditional so 0 and 1 (both a single
		// chain) share one entry.
		key += fmt.Sprintf("|sar=%d", cfg.SARestarts)
	}
	return cached(cfg, key, func() (*core.Result, error) {
		staged, err := cachedStaged(cfg, b, a)
		if err != nil {
			return nil, err
		}
		zc, err := compiler.Get("zac")
		if err != nil {
			return nil, err
		}
		r, err := zc.Compile(ctx, staged, a, compiler.Options{
			Key: b.Name, Artifacts: cfg.artifacts(), Core: &opts,
			SARestarts: cfg.SARestarts, Workers: cfg.Workers,
		})
		if err != nil {
			return nil, fmt.Errorf("%s/zac: %w", b.Name, err)
		}
		return r, nil
	})
}

// cachedZACNativeCCZ is the native-CCZ variant of cachedZAC: the benchmark
// is preprocessed with PreprocessNativeCCZ and compiled on the three-trap
// architecture.
func cachedZACNativeCCZ(ctx context.Context, cfg Config, b bench.Benchmark, a *arch.Architecture) (*core.Result, error) {
	key := "zacccz|" + b.Name + "|arch=" + a.Fingerprint()
	return cached(cfg, key, func() (*core.Result, error) {
		staged, err := cfg.artifacts().Staged("ccz|"+b.Name, a.TotalSites(), func() (*circuit.Staged, error) {
			native, err := resynth.PreprocessNativeCCZ(b.Build())
			if err != nil {
				return nil, fmt.Errorf("%s: %w", b.Name, err)
			}
			return native, nil
		})
		if err != nil {
			return nil, err
		}
		zc, err := compiler.Get("zac")
		if err != nil {
			return nil, err
		}
		opts := core.Default()
		r, err := zc.Compile(ctx, staged, a, compiler.Options{
			Key: "ccz|" + b.Name, Artifacts: cfg.artifacts(), Core: &opts,
		})
		if err != nil {
			return nil, fmt.Errorf("%s/zac-ccz: %w", b.Name, err)
		}
		return r, nil
	})
}

// evalCompiler compiles one benchmark with one registry compiler under the
// paper's evaluation setup: the compiler's default target architecture, and
// staged input split to the zoned reference capacity (the shaping every
// neutral-atom column shares) unless the compiler opts out. ZAC-family
// names route through cachedZAC so their cache entries unify with the
// Fig. 11 ablation study.
func evalCompiler(ctx context.Context, cfg Config, name string, b bench.Benchmark) (naResult, error) {
	c, err := compiler.Get(name)
	if err != nil {
		return naResult{}, err
	}
	if setting, ok := compiler.Setting(c.Name()); ok {
		r, err := cachedZAC(ctx, cfg, b, arch.Reference(), setting, core.OptionsFor(setting))
		if err != nil {
			return naResult{}, err
		}
		return toNA(r), nil
	}
	// StageSplitCap is the registry-wide shaping rule; for the baselines it
	// is exactly the zoned reference capacity cachedStaged splits to, so
	// the staged artifact is shared with the ZAC columns.
	var split *arch.Architecture
	if compiler.StageSplitCap(c) > 0 {
		split = arch.Reference()
	}
	return evalCompilerOn(ctx, cfg, name, b, split, compiler.TargetArch(c))
}

// evalCompilerOn compiles one benchmark with one registry compiler under an
// explicit setup: split is the architecture whose site capacity bounds the
// staged circuit's Rydberg stages (nil = flat, no splitting) and target is
// the architecture compiled for.
func evalCompilerOn(ctx context.Context, cfg Config, name string, b bench.Benchmark, split, target *arch.Architecture) (naResult, error) {
	c, err := compiler.Get(name)
	if err != nil {
		return naResult{}, err
	}
	splitLabel := "none"
	if split != nil {
		splitLabel = split.Fingerprint()
	}
	key := fmt.Sprintf("compile|%s|%s|split=%s|arch=%s", c.Name(), b.Name, splitLabel, target.Fingerprint())
	r, err := cached(cfg, key, func() (*core.Result, error) {
		var staged *circuit.Staged
		var err error
		if split != nil {
			staged, err = cachedStaged(cfg, b, split)
		} else {
			staged, err = cachedFlat(cfg, b)
		}
		if err != nil {
			return nil, err
		}
		r, err := c.Compile(ctx, staged, target, compiler.Options{Key: b.Name, Artifacts: cfg.artifacts()})
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", b.Name, c.Name(), err)
		}
		return r, nil
	})
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
