package compiler

import (
	"context"

	"zac/internal/arch"
	"zac/internal/circuit"
	"zac/internal/core"
)

// zacCompiler wraps the core pass pipeline under one ablation preset of the
// paper's Fig. 11 legend.
type zacCompiler struct {
	name    string
	setting string
}

// Name returns the canonical registry name ("zac", "zac-vanilla", …).
func (z *zacCompiler) Name() string { return z.name }

// Compile runs the standard pipeline with the options resolve returns.
func (z *zacCompiler) Compile(ctx context.Context, staged *circuit.Staged, a *arch.Architecture, opts Options) (*core.Result, error) {
	return core.Standard().Run(ctx, staged, a, z.resolve(opts))
}

// resolve returns the pipeline configuration one compilation runs under:
// the preset (or the caller's Core override) with the restart count and
// worker budget applied. Compile and Key both use it, so a cache key always
// describes the configuration that actually ran.
func (z *zacCompiler) resolve(opts Options) core.Options {
	co := core.OptionsFor(z.setting)
	if opts.Core != nil {
		co = *opts.Core
	}
	if opts.SARestarts > 0 {
		co.Place.SARestarts = opts.SARestarts
	}
	if opts.Workers > 0 {
		co.Place.Workers = opts.Workers
	}
	return co
}

// Setting returns the core ablation preset a zac-family registry name maps
// to, and whether name belongs to the zac family at all: the family that
// emits a ZAIR instruction stream.
func Setting(name string) (string, bool) {
	if c, err := Get(name); err == nil {
		if z, ok := c.(*zacCompiler); ok {
			return z.setting, true
		}
	}
	return "", false
}
