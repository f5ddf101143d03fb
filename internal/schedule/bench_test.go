package schedule_test

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
	"zac/internal/schedule"
	"zac/internal/workload"
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
// SARestarts=8) followed by schedule.BuildWithOptions, at 1 and 8 procs,
// on two subset circuits and on forge-scale's largest QAOA spec, split to
// site capacity as that workload splits it. Outputs are byte-identical
// across the proc axis by construction; only the wall clock may differ.
func BenchmarkBuildPlanSched(b *testing.B) {
	a := arch.Reference()
	c, err := workload.Build("qaoa:n=192,p=2,seed=1")
	if err != nil {
		b.Fatal(err)
	}
	forge, err := resynth.Preprocess(c)
	if err != nil {
		b.Fatal(err)
	}
	for _, in := range []struct {
		name   string
		staged *circuit.Staged
	}{
		{"qft_n18", stagedFor(b, "qft_n18")},
		{"ising_n42", stagedFor(b, "ising_n42")},
		{"forge_qaoa_n192", circuit.SplitRydbergStages(forge, a.TotalSites())},
	} {
		name, staged := in.name, in.staged
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
					if _, err := schedule.BuildWithOptions(context.Background(), a, staged, plan, schedule.Options{Workers: procs}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
