package place_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"zac/internal/arch"
	"zac/internal/bench"
	"zac/internal/circuit"
	"zac/internal/place"
	"zac/internal/resynth"
	"zac/internal/schedule"
)

func stagedBench(t *testing.T, name string) *circuit.Staged {
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
// context from another goroutine asks for the channel.
type countdownCtx struct {
	context.Context
	k         int64
	calls     atomic.Int64
	doneCalls atomic.Int64
	once      sync.Once
	done      chan struct{}
}

func newCountdownCtx(k int64) *countdownCtx {
	return &countdownCtx{Context: context.Background(), k: k, done: make(chan struct{})}
}

func (c *countdownCtx) Done() <-chan struct{} {
	c.doneCalls.Add(1)
	return c.done
}

func (c *countdownCtx) Err() error {
	if c.calls.Add(1) < c.k {
		return nil
	}
	c.once.Do(func() { close(c.done) })
	return context.Canceled
}

// TestBuildPlanCancelParallel aborts a multi-restart BuildPlan at each of
// its context checks in turn and checks the cancellation propagates as
// context.Canceled with every worker goroutine torn down. Workers=4 races
// the restart chains and the reuse/no-reuse candidates on goroutines;
// Workers=1 runs both in order on the calling goroutine. Run under -race
// this also exercises the concurrent teardown paths.
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

// TestScheduleCancelParallel aborts the parallel schedule pass (conflict
// graph build on 4 workers) mid-flight: clean context.Canceled, no leaked
// workers, and a pre-cancelled context never starts.
func TestScheduleCancelParallel(t *testing.T) {
	a := arch.Reference()
	staged := stagedBench(t, "ising_n42") // wide stages → many moves per phase
	plan, err := place.BuildPlan(context.Background(), a, staged, place.Default())
	if err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()

	pre, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := schedule.BuildWithOptions(pre, a, staged, plan, schedule.Options{Workers: 4}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled schedule: err = %v, want context.Canceled", err)
	}

	for _, delay := range []time.Duration{0, 50 * time.Microsecond, 500 * time.Microsecond} {
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(delay)
			cancel()
		}()
		_, err := schedule.BuildWithOptions(ctx, a, staged, plan, schedule.Options{Workers: 4})
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled schedule: err = %v, want context.Canceled or nil", err)
		}
		cancel()
	}
	settleGoroutines(t, baseline)
}
