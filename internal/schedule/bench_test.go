package schedule

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"zac/internal/arch"
	"zac/internal/bench"
	"zac/internal/circuit"
	"zac/internal/place"
	"zac/internal/resynth"
)

// Multi-core scaling benchmark over the parallelized compile hot path:
// placement with eight SA restarts plus the full schedule pass,
// pinned at GOMAXPROCS 1 and 8 with a matching intra-compile worker budget.
// It lives in this package (not place) because it drives both passes and
// schedule already imports place. Run with
//
//	go test ./internal/schedule -run xxx -bench BenchmarkBuildPlanSched
//
// scripts/bench-regress.sh gates each cell; the "-P" suffix go test prints
// is the ambient GOMAXPROCS, not the pinned one, so the cell name carries
// the pin.

func stagedFor(b *testing.B, name string) *circuit.Staged {
	b.Helper()
	bm, err := bench.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	staged, err := resynth.Preprocess(bm.Build())
	if err != nil {
		b.Fatal(err)
	}
	return staged
}

// BenchmarkBuildPlanSched measures BuildPlan (SA+dynPlace+reuse with
// SARestarts=8) followed by schedule.BuildWithOptions, at 1 and 8 procs.
// Outputs are byte-identical across the proc axis by construction; only the
// wall clock may differ.
func BenchmarkBuildPlanSched(b *testing.B) {
	a := arch.Reference()
	for _, name := range []string{"qft_n18", "ising_n42"} {
		staged := stagedFor(b, name)
		for _, procs := range []int{1, 8} {
			b.Run(fmt.Sprintf("%s/gmp%d", name, procs), func(b *testing.B) {
				prev := runtime.GOMAXPROCS(procs)
				defer runtime.GOMAXPROCS(prev)
				opts := place.Default()
				opts.SARestarts = 8
				opts.Workers = procs
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					plan, err := place.BuildPlan(context.Background(), a, staged, opts)
					if err != nil {
						b.Fatal(err)
					}
					if _, err := BuildWithOptions(context.Background(), a, staged, plan, Options{Workers: procs}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
