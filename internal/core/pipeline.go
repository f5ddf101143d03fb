package core

import (
	"context"
	"fmt"
	"time"

	"zac/internal/arch"
	"zac/internal/circuit"
	"zac/internal/cover"
	"zac/internal/faultinject"
	"zac/internal/fidelity"
	"zac/internal/place"
	"zac/internal/schedule"
	"zac/internal/telemetry"
)

// PassTiming records one executed pipeline pass: its name and its
// wall-clock duration.
type PassTiming struct {
	Pass     string        `json:"pass"`
	Duration time.Duration `json:"duration_ns"`
}

// PassState is the mutable compilation state threaded through one pipeline
// run. Each pass reads the fields earlier passes populated and fills in its
// own; the emit pass assembles Result from them.
type PassState struct {
	Arch   *arch.Architecture
	Staged *circuit.Staged
	Opts   Options

	Plan   *place.Plan
	Sched  *schedule.Result
	Result *Result

	start time.Time
}

// Pass is one named stage of the compilation pipeline.
type Pass struct {
	Name string
	Run  func(ctx context.Context, st *PassState) error
}

// Pipeline is an ordered chain of named passes over a shared PassState,
// instrumented with per-pass wall-clock timings and cancellable between
// passes (and, through BuildPlan and schedule.BuildWithOptions, within the expensive
// ones).
type Pipeline struct {
	passes []Pass
}

// NewPipeline builds a pipeline from the given passes, run in order.
func NewPipeline(passes ...Pass) *Pipeline { return &Pipeline{passes: passes} }

// Standard returns ZAC's pass chain (paper §IV):
// validate → place → schedule → emit → fidelity.
func Standard() *Pipeline {
	return NewPipeline(ValidatePass(), PlacePass(), SchedulePass(), EmitPass(), FidelityPass())
}

// ValidatePass checks the architecture and the staged circuit before any
// expensive work.
func ValidatePass() Pass {
	return Pass{Name: "validate", Run: func(ctx context.Context, st *PassState) error {
		if err := st.Arch.Validate(); err != nil {
			return err
		}
		return st.Staged.Validate()
	}}
}

// PlacePass runs reuse-aware placement (§V).
func PlacePass() Pass {
	return Pass{Name: "place", Run: func(ctx context.Context, st *PassState) error {
		plan, err := place.BuildPlan(ctx, st.Arch, st.Staged, st.Opts.Place)
		if err != nil {
			return err
		}
		st.Plan = plan
		return nil
	}}
}

// SchedulePass runs load-balancing scheduling (§VI), turning the plan into
// a timed ZAIR program. It shares the placement pass's worker budget
// (Options.Place.Workers) so one compile never exceeds its allowance.
func SchedulePass() Pass {
	return Pass{Name: "schedule", Run: func(ctx context.Context, st *PassState) error {
		sched, err := schedule.BuildWithOptions(ctx, st.Arch, st.Staged, st.Plan,
			schedule.Options{Workers: st.Opts.Place.Workers})
		if err != nil {
			return err
		}
		st.Sched = sched
		return nil
	}}
}

// EmitPass assembles the Result from the plan and schedule. CompileTime is
// stamped here, so it covers validation, placement and scheduling but not
// the fidelity evaluation — the same span the pre-pipeline compiler
// measured.
func EmitPass() Pass {
	return Pass{Name: "emit", Run: func(ctx context.Context, st *PassState) error {
		st.Result = &Result{
			Program:          st.Sched.Program,
			Plan:             st.Plan,
			Staged:           st.Staged,
			Stats:            st.Sched.Stats,
			Duration:         st.Sched.Stats.Duration,
			CompileTime:      time.Since(st.start),
			NumRydbergStages: st.Staged.NumRydbergStages(),
			NumJobs:          st.Sched.NumJobs,
			ReusedGates:      st.Plan.TotalReused(),
			TotalMoves:       st.Plan.TotalMoves(),
		}
		return nil
	}}
}

// FidelityPass evaluates the compiled program under the paper's fidelity
// model (§VII-B).
func FidelityPass() Pass {
	return Pass{Name: "fidelity", Run: func(ctx context.Context, st *PassState) error {
		st.Result.Breakdown = fidelity.Compute(ParamsFromArch(st.Arch), st.Result.Stats)
		return nil
	}}
}

// Run executes the pipeline over an already-preprocessed staged circuit and
// returns the compiled Result with one PassTiming per pass. The context is
// checked between passes and plumbed into placement and scheduling, so an
// abandoned compilation stops mid-pass instead of running to completion.
// Pass boundaries additionally consult a context-carried fault-injection
// plan (internal/faultinject) at points "pass.<name>", so the chaos suite
// can delay or fail compilations at any stage seam; compilations without a
// plan pay one nil check per pass. When the context carries a telemetry
// trace (internal/telemetry), each pass records a "pass.<name>" span.
func (p *Pipeline) Run(ctx context.Context, staged *circuit.Staged, a *arch.Architecture, opts Options) (*Result, error) {
	st := &PassState{Arch: a, Staged: staged, Opts: opts, start: time.Now()}
	cov := cover.From(ctx)
	fip := faultinject.From(ctx)
	timings := make([]PassTiming, 0, len(p.passes))
	for _, pass := range p.passes {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := fip.Boundary(ctx, "pass."+pass.Name); err != nil {
			return nil, fmt.Errorf("%s pass: %w", pass.Name, err)
		}
		passCtx, span := telemetry.Start(ctx, "pass."+pass.Name)
		t0 := time.Now()
		if err := pass.Run(passCtx, st); err != nil {
			span.End()
			return nil, fmt.Errorf("%s pass: %w", pass.Name, err)
		}
		span.End()
		if cov != nil {
			cov.Hit("pass:" + pass.Name)
		}
		timings = append(timings, PassTiming{Pass: pass.Name, Duration: time.Since(t0)})
	}
	if st.Result == nil {
		return nil, fmt.Errorf("core: pipeline has no emit pass")
	}
	st.Result.Passes = timings
	return st.Result, nil
}
