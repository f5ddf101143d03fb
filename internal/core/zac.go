// Package core is the ZAC compiler (paper §IV): it chains preprocessing
// (resynthesis to {CZ,U3} + ASAP staging), reuse-aware placement (§V) and
// load-balancing scheduling (§VI) into a timed ZAIR program, and evaluates
// the result under the paper's fidelity model (§VII-B). The ablation knobs
// of Fig. 11/12 (Vanilla / dynPlace / +reuse / +SA) are exposed through
// place.Options.
package core

import (
	"context"
	"time"

	"zac/internal/arch"
	"zac/internal/circuit"
	"zac/internal/fidelity"
	"zac/internal/place"
	"zac/internal/resynth"
	"zac/internal/zair"
)

// Options configures a compilation.
type Options struct {
	Place place.Options
}

// Ablation presets matching the paper's Fig. 11 legend, plus the §X
// advanced-reuse path (full ZAC with in-zone site-to-site movement).
const (
	SettingVanilla         = "Vanilla"
	SettingDynPlace        = "dynPlace"
	SettingDynPlaceReuse   = "dynPlace+reuse"
	SettingSADynPlaceReuse = "SA+dynPlace+reuse"
	SettingAdvReuse        = "SA+dynPlace+advReuse"
)

// OptionsFor returns the option preset for one of the ablation settings; the
// full ZAC configuration is SettingSADynPlaceReuse.
func OptionsFor(setting string) Options {
	o := place.Default()
	switch setting {
	case SettingVanilla:
		o.UseSA, o.Dynamic, o.Reuse = false, false, false
	case SettingDynPlace:
		o.UseSA, o.Dynamic, o.Reuse = false, true, false
	case SettingDynPlaceReuse:
		o.UseSA, o.Dynamic, o.Reuse = false, true, true
	case SettingSADynPlaceReuse:
		// defaults
	case SettingAdvReuse:
		o.AdvancedReuse = true
	}
	return Options{Place: o}
}

// Default returns the full ZAC configuration.
func Default() Options { return Options{Place: place.Default()} }

// Result is a compiled circuit with its evaluation.
type Result struct {
	Program   *zair.Program
	Plan      *place.Plan
	Staged    *circuit.Staged
	Stats     fidelity.Stats
	Breakdown fidelity.Breakdown

	Duration         float64 // µs
	CompileTime      time.Duration
	NumRydbergStages int
	NumJobs          int
	ReusedGates      int
	TotalMoves       int

	// Passes holds the per-pass wall-time instrumentation of the pipeline
	// run that produced this result.
	Passes []PassTiming
}

// ParamsFromArch converts an architecture's hardware numbers into fidelity
// model parameters.
func ParamsFromArch(a *arch.Architecture) fidelity.Params {
	return fidelity.Params{
		F1: a.Fidelities.SingleQubit, F2: a.Fidelities.TwoQubit,
		FExc: a.Fidelities.Excitation, FTran: a.Fidelities.AtomTransfer,
		T1Q: a.Times.OneQGate, T2Q: a.Times.Rydberg, TTran: a.Times.AtomTransfer,
		T2: a.T2,
	}
}

// Compile preprocesses and compiles an input circuit for the architecture.
func Compile(c *circuit.Circuit, a *arch.Architecture, opts Options) (*Result, error) {
	staged, err := resynth.Preprocess(c)
	if err != nil {
		return nil, err
	}
	return CompileStaged(staged, a, opts)
}

// CompileStaged compiles an already-preprocessed staged circuit by running
// the standard pass pipeline (validate → place → schedule → emit →
// fidelity) without cancellation. Callers needing it use Standard().Run
// directly (the compiler registry does).
func CompileStaged(staged *circuit.Staged, a *arch.Architecture, opts Options) (*Result, error) {
	return Standard().Run(context.Background(), staged, a, opts)
}
