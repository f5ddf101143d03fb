package place_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"zac/internal/arch"
	"zac/internal/bench"
	"zac/internal/circuit"
	"zac/internal/core"
	"zac/internal/faultinject"
	"zac/internal/place"
	"zac/internal/resynth"
	"zac/internal/telemetry"
	"zac/internal/workload"
)

func stagedBench(t testing.TB, name string) *circuit.Staged {
	t.Helper()
	bm, err := bench.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	staged, err := resynth.Preprocess(bm.Build())
	if err != nil {
		t.Fatal(err)
	}
	return staged
}

// settleGoroutines waits for the goroutine count to return to (near) its
// baseline, failing the test if parallel workers leaked past cancellation.
func settleGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not settle: %d, baseline %d", runtime.NumGoroutine(), baseline)
		}
		runtime.Gosched()
		time.Sleep(5 * time.Millisecond)
	}
}

// countdownCtx is a context cancelled by its own checks rather than by a
// clock: Err reports context.Canceled from its k-th call on, and Done
// closes at that call. Sweeping k lands the abort on every check a run
// makes, in order. Done calls are counted too: only code that waits on the
// context from another goroutine asks for the channel. Err calls made on
// another goroutine than the one that created the context are counted as
// worker checks.
type countdownCtx struct {
	context.Context
	k            int64
	owner        string
	calls        atomic.Int64
	workerChecks atomic.Int64
	doneCalls    atomic.Int64
	once         sync.Once
	done         chan struct{}
}

func newCountdownCtx(k int64) *countdownCtx {
	return &countdownCtx{Context: context.Background(), k: k, owner: goroutineID(), done: make(chan struct{})}
}

// goroutineID is the calling goroutine's number, read from the header line
// of its stack trace ("goroutine 7 [running]:").
func goroutineID() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	id, _, _ := strings.Cut(strings.TrimPrefix(string(buf), "goroutine "), " ")
	return id
}

func (c *countdownCtx) Done() <-chan struct{} {
	c.doneCalls.Add(1)
	return c.done
}

func (c *countdownCtx) Err() error {
	if goroutineID() != c.owner {
		c.workerChecks.Add(1)
	}
	if c.calls.Add(1) < c.k {
		return nil
	}
	c.once.Do(func() { close(c.done) })
	return context.Canceled
}

// TestBuildPlanCancelParallel aborts a multi-restart BuildPlan at each of
// its context checks in turn and checks the cancellation propagates as
// context.Canceled with every worker goroutine torn down. Workers=4 races
// the restart chains on goroutines; Workers=1 runs them in order on the
// calling goroutine. Stage transitions run on the calling goroutine either
// way. Run under -race this also exercises the concurrent teardown paths.
func TestBuildPlanCancelParallel(t *testing.T) {
	a := arch.Reference()
	staged := stagedBench(t, "qft_n18")
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			opts := place.Default()
			opts.SARestarts = 4
			opts.SAIterations = 50 // the sweep runs BuildPlan once per check
			opts.Workers = workers
			baseline := runtime.NumGoroutine()

			// Pre-cancelled: must fail before any real work.
			pre, cancel := context.WithCancel(context.Background())
			cancel()
			if _, err := place.BuildPlan(pre, a, staged, opts); !errors.Is(err, context.Canceled) {
				t.Fatalf("pre-cancelled BuildPlan: err = %v, want context.Canceled", err)
			}

			// A full run counts the checks the sweep will cancel at.
			full := newCountdownCtx(math.MaxInt64)
			if _, err := place.BuildPlan(full, a, staged, opts); err != nil {
				t.Fatal(err)
			}
			checks := full.calls.Load()
			if workers == 1 && full.doneCalls.Load() != 0 {
				t.Error("Workers=1 BuildPlan waited on its context from another goroutine")
			}

			// Mid-flight: either outcome (finished or cancelled) is legal,
			// but a cancelled run must report context.Canceled and leak
			// nothing. At Workers=1 every check runs on the calling
			// goroutine, so each one must abort the run.
			for k := int64(1); k <= checks; k++ {
				_, err := place.BuildPlan(newCountdownCtx(k), a, staged, opts)
				if err != nil && !errors.Is(err, context.Canceled) {
					t.Fatalf("cancelled at check %d: err = %v, want context.Canceled or nil", k, err)
				}
				if workers == 1 && err == nil {
					t.Fatalf("cancelled at check %d of %d: BuildPlan finished", k, checks)
				}
			}
			settleGoroutines(t, baseline)
		})
	}
}

// overlapSpec is a forge-scale spec above the 2Q gate count from which
// core's pipeline schedules each placement step on its own goroutine while
// placement solves the next one.
const overlapSpec = "qaoa:n=128,p=2,seed=1"

// overlapInput is overlapSpec split to the reference architecture's site
// capacity, as perfbench's forge-scale splits it.
func overlapInput(t *testing.T) (*arch.Architecture, *circuit.Staged) {
	t.Helper()
	a := arch.Reference()
	c, err := workload.Build(overlapSpec)
	if err != nil {
		t.Fatal(err)
	}
	staged, err := resynth.Preprocess(c)
	if err != nil {
		t.Fatal(err)
	}
	return a, circuit.SplitRydbergStages(staged, a.TotalSites())
}

// overlapOptions is full ZAC at the given worker budget, with a short
// anneal: the sweeps below compile once per context check.
func overlapOptions(workers int) core.Options {
	o := core.Default()
	o.Place.SAIterations = 50
	o.Place.Workers = workers
	return o
}

// runTraced compiles under a fresh trace and reports whether the compile
// scheduled on its own goroutine: the "schedule.overlap" span records that
// the goroutine ran and ended.
func runTraced(ctx context.Context, a *arch.Architecture, staged *circuit.Staged, opts core.Options) (overlapped bool, err error) {
	rec := telemetry.NewRecorder(1)
	ctx, root := rec.StartTrace(ctx, "compile")
	_, err = core.Standard().Run(ctx, staged, a, opts)
	root.End()
	for _, td := range rec.Dump() {
		for _, sp := range td.Spans {
			overlapped = overlapped || sp.Name == "schedule.overlap"
		}
	}
	return overlapped, err
}

// TestPipelineCancelOverlap aborts a core.Standard compile of overlapSpec
// at each of its context checks in turn. At Workers=2 the pipeline
// schedules each step on its own goroutine while placement solves the
// next, under a context the compile's cancels; at Workers=1 it schedules
// after placement on the calling goroutine. Either way every context check
// runs on the calling goroutine (the scheduler's derived context answers
// its own), so each one must abort the compile with context.Canceled, and
// no goroutine may outlive Run. A pre-cancelled context never starts.
func TestPipelineCancelOverlap(t *testing.T) {
	a, staged := overlapInput(t)
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			opts := overlapOptions(workers)
			baseline := runtime.NumGoroutine()

			overlapped, err := runTraced(context.Background(), a, staged, opts)
			if err != nil {
				t.Fatal(err)
			}
			if overlapped != (workers > 1) {
				t.Fatalf("Workers=%d: scheduler on its own goroutine = %v", workers, overlapped)
			}

			pre, cancel := context.WithCancel(context.Background())
			cancel()
			if _, err := core.Standard().Run(pre, staged, a, opts); !errors.Is(err, context.Canceled) {
				t.Fatalf("pre-cancelled compile: err = %v, want context.Canceled", err)
			}

			// A full run counts the checks the sweep will cancel at.
			full := newCountdownCtx(math.MaxInt64)
			if _, err := core.Standard().Run(full, staged, a, opts); err != nil {
				t.Fatal(err)
			}
			checks, waits, onWorkers := full.calls.Load(), full.doneCalls.Load(), full.workerChecks.Load()
			t.Logf("full run: %d context checks (%d on other goroutines), %d waits", checks, onWorkers, waits)
			if onWorkers != 0 {
				t.Error("the compile checked its context on another goroutine")
			}
			if (waits != 0) != (workers > 1) {
				t.Errorf("Workers=%d: %d waits on the compile's context, want them only when scheduling overlaps", workers, waits)
			}

			for k := int64(1); k <= checks; k++ {
				if _, err := core.Standard().Run(newCountdownCtx(k), staged, a, opts); !errors.Is(err, context.Canceled) {
					t.Fatalf("cancelled at check %d of %d: err = %v, want context.Canceled", k, checks, err)
				}
			}
			settleGoroutines(t, baseline)
		})
	}
}

// TestPipelineFaultAtScheduleJoinsScheduler fails the compile at the
// schedule pass's boundary, after placement has handed every step to the
// overlapped scheduler: Run must return the injected fault and cancel and
// join that scheduler first.
func TestPipelineFaultAtScheduleJoinsScheduler(t *testing.T) {
	a, staged := overlapInput(t)
	baseline := runtime.NumGoroutine()
	plan := faultinject.NewPlan(1, faultinject.Rule{Point: "pass.schedule", Hits: []uint64{1}, Kind: faultinject.KindError})
	overlapped, err := runTraced(faultinject.With(context.Background(), plan), a, staged, overlapOptions(2))
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("err = %v, want the injected fault", err)
	}
	if !overlapped {
		t.Fatal("the scheduler never ran on its own goroutine")
	}
	settleGoroutines(t, baseline)
}

// TestPipelinePlacementErrorJoinsScheduler appends to overlapSpec a last
// Rydberg stage with one gate more than the architecture has sites, so
// placement fails at its last transition, after it has handed the
// overlapped scheduler every step but the one before. Run must return the
// placement error and cancel and join that scheduler first.
func TestPipelinePlacementErrorJoinsScheduler(t *testing.T) {
	a, staged := overlapInput(t)
	over := *staged
	last := circuit.Stage{Kind: circuit.RydbergStage}
	for i := 0; i <= a.TotalSites(); i++ {
		last.Gates = append(last.Gates, circuit.NewGate(circuit.CZ, []int{2 * i, 2*i + 1}))
	}
	over.NumQubits = max(over.NumQubits, 2*len(last.Gates))
	over.Stages = append(slices.Clip(over.Stages), last)
	baseline := runtime.NumGoroutine()
	overlapped, err := runTraced(context.Background(), a, &over, overlapOptions(2))
	if err == nil || !strings.Contains(err.Error(), "cannot place") {
		t.Fatalf("err = %v, want a placement error", err)
	}
	if !overlapped {
		t.Fatal("the scheduler never ran on its own goroutine")
	}
	settleGoroutines(t, baseline)
}
