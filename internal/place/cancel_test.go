package place_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
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

// TestScheduleCancelParallel aborts the schedule pass at each of its
// context checks in turn. ising_n98 is the paper circuit whose movement
// phases reach the conflict graph's parallel threshold, so at Workers=4
// the row scan fans out to goroutines that check the caller's context row
// by row, and the sweep cancels them mid-scan; at Workers=1 every check
// runs on the calling goroutine and each one must abort the run. Every
// abort reports context.Canceled and leaks no worker, and a pre-cancelled
// context never starts.
func TestScheduleCancelParallel(t *testing.T) {
	a := arch.Reference()
	staged := stagedBench(t, "ising_n98")
	plan, err := place.BuildPlan(context.Background(), a, staged, place.Default())
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			opts := schedule.Options{Workers: workers}
			baseline := runtime.NumGoroutine()

			pre, cancel := context.WithCancel(context.Background())
			cancel()
			if _, err := schedule.BuildWithOptions(pre, a, staged, plan, opts); !errors.Is(err, context.Canceled) {
				t.Fatalf("pre-cancelled schedule: err = %v, want context.Canceled", err)
			}

			// A full run counts the checks the sweep will cancel at, and
			// shows whether the parallel conflict graph ran at all.
			full := newCountdownCtx(math.MaxInt64)
			if _, err := schedule.BuildWithOptions(full, a, staged, plan, opts); err != nil {
				t.Fatal(err)
			}
			checks, waits, onWorkers := full.calls.Load(), full.doneCalls.Load(), full.workerChecks.Load()
			t.Logf("full run: %d context checks (%d on workers), %d waits from other goroutines", checks, onWorkers, waits)
			if workers == 1 && (waits != 0 || onWorkers != 0) {
				t.Error("Workers=1 schedule used its context from another goroutine")
			}
			if workers > 1 && (waits == 0 || onWorkers == 0) {
				t.Fatal("Workers=4 schedule never checked its context on a conflict-graph worker")
			}

			for k := int64(1); k <= checks; k++ {
				_, err := schedule.BuildWithOptions(newCountdownCtx(k), a, staged, plan, opts)
				if err != nil && !errors.Is(err, context.Canceled) {
					t.Fatalf("cancelled at check %d: err = %v, want context.Canceled or nil", k, err)
				}
				if workers == 1 && err == nil {
					t.Fatalf("cancelled at check %d of %d: schedule finished", k, checks)
				}
			}
			settleGoroutines(t, baseline)
		})
	}
}
