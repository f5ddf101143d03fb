package core

import (
	"context"
	"fmt"
	"time"

	"zac/internal/arch"
	"zac/internal/circuit"
	"zac/internal/cover"
	"zac/internal/engine"
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
	// overlap is the scheduler PlacePass started on its own goroutine, nil
	// until it starts and again once SchedulePass or Run has joined it.
	overlap *overlappedSchedule
}

// Pass is one named stage of the compilation pipeline.
type Pass struct {
	Name string
	Run  func(ctx context.Context, st *PassState) error
}

// Pipeline is an ordered chain of named passes over a shared PassState,
// instrumented with per-pass wall-clock timings and cancellable between
// passes (and, through placement and scheduling, within the expensive
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

// minOverlapTwoQGates is the 2Q gate count from which PlacePass schedules
// each step while placement solves the next. Below it, the hand-off per
// step costs more than the overlap saves: the paper circuits have at most
// 306 2Q gates, the forge-scale specs 768 to 2,560.
const minOverlapTwoQGates = 512

// PlacePass runs reuse-aware placement (§V). With more than one worker
// (Options.Place.Workers) and at least minOverlapTwoQGates 2Q gates, it
// also starts the scheduler on its own goroutine at the first final step
// and hands it each step as placement finishes it, so the schedule pass
// only waits for the last steps.
func PlacePass() Pass {
	return Pass{Name: "place", Run: func(ctx context.Context, st *PassState) error {
		var final func(*place.Plan, *place.Step)
		if engine.Workers(st.Opts.Place.Workers) > 1 {
			if _, twoQ := st.Staged.GateCounts(); twoQ >= minOverlapTwoQGates {
				final = func(plan *place.Plan, step *place.Step) {
					if st.overlap == nil {
						st.overlap = startSchedule(ctx, st, plan.Initial)
					}
					st.overlap.steps <- step
				}
			}
		}
		plan, err := place.StreamPlan(ctx, st.Arch, st.Staged, st.Opts.Place, final)
		if st.overlap != nil {
			close(st.overlap.steps)
		}
		if err != nil {
			return err
		}
		st.Plan = plan
		return nil
	}}
}

// SchedulePass runs load-balancing scheduling (§VI), turning the plan into
// a timed ZAIR program. When PlacePass started the scheduler, it waits for
// that goroutine's result; otherwise it schedules the finished plan.
func SchedulePass() Pass {
	return Pass{Name: "schedule", Run: func(ctx context.Context, st *PassState) error {
		var sched *schedule.Result
		var err error
		if o := st.overlap; o != nil {
			st.overlap = nil
			sched, err = o.wait()
		} else {
			sched, err = schedule.BuildWithOptions(ctx, st.Arch, st.Staged, st.Plan,
				schedule.Options{Workers: st.Opts.Place.Workers})
		}
		if err != nil {
			return err
		}
		st.Sched = sched
		return nil
	}}
}

// overlappedSchedule is a scheduler running on its own goroutine over the
// steps placement hands it through steps.
type overlappedSchedule struct {
	steps  chan *place.Step
	cancel context.CancelFunc
	done   chan struct{}
	res    *schedule.Result
	err    error
}

// startSchedule starts schedule.Stream on its own goroutine, under a
// context that the compile's cancels and that stop cancels too. steps holds
// one slot per Rydberg stage, so placement never blocks on it, even after
// the scheduler has stopped early. The goroutine's "schedule.overlap" span
// sits under pass.place.
func startSchedule(ctx context.Context, st *PassState, initial []arch.TrapRef) *overlappedSchedule {
	ctx, cancel := context.WithCancel(ctx)
	o := &overlappedSchedule{
		steps:  make(chan *place.Step, st.Staged.NumRydbergStages()),
		cancel: cancel,
		done:   make(chan struct{}),
	}
	a, staged := st.Arch, st.Staged
	go func() {
		defer close(o.done)
		ctx, span := telemetry.Start(ctx, "schedule.overlap")
		defer span.End()
		o.res, o.err = schedule.Stream(ctx, a, staged, initial, func(yield func(*place.Step) bool) {
			for step := range o.steps {
				if !yield(step) {
					return
				}
			}
		})
	}()
	return o
}

// wait joins the scheduler and returns its result.
func (o *overlappedSchedule) wait() (*schedule.Result, error) {
	<-o.done
	o.cancel()
	return o.res, o.err
}

// stop cancels the scheduler and joins it, discarding its result.
func (o *overlappedSchedule) stop() {
	o.cancel()
	<-o.done
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
// trace (internal/telemetry), each pass records a "pass.<name>" span. A
// scheduler PlacePass started that no pass joined is cancelled and joined
// before Run returns, so no goroutine outlives it.
func (p *Pipeline) Run(ctx context.Context, staged *circuit.Staged, a *arch.Architecture, opts Options) (*Result, error) {
	st := &PassState{Arch: a, Staged: staged, Opts: opts, start: time.Now()}
	defer func() {
		if st.overlap != nil {
			st.overlap.stop()
		}
	}()
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
