package place_test

import (
	"context"
	"math/rand"
	"testing"

	"zac/internal/arch"
	"zac/internal/circuit"
	"zac/internal/place"
	"zac/internal/resynth"
	"zac/internal/workload"
)

// Micro-benchmarks over the placement hot path: run with
//
//	go test ./internal/place -run xxx -bench 'BenchmarkSAInitial|BenchmarkBuildPlan' -benchmem
//
// or via scripts/bench-regress.sh, which gates them A/B against a git ref.

// BenchmarkSAInitial measures the §V-A simulated-annealing initial placement
// (1000 iterations, the paper's budget) on the densest subset circuit.
func BenchmarkSAInitial(b *testing.B) {
	a := arch.Reference()
	staged := stagedBench(b, "qft_n18")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := place.SAInitialWithCost(a, staged, 1000, rand.New(rand.NewSource(1))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildPlan measures the full placement pipeline under the paper's
// SA+dynPlace+reuse preset for the two heaviest subset circuits and for
// forge-scale's largest QAOA spec, split to site capacity as that workload
// splits it: 11 transitions between stages of up to 96 gates, the size at
// which the transition solves dominate a compile.
func BenchmarkBuildPlan(b *testing.B) {
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
		{"qft_n18", stagedBench(b, "qft_n18")},
		{"ising_n42", stagedBench(b, "ising_n42")},
		{"forge_qaoa_n192", circuit.SplitRydbergStages(forge, a.TotalSites())},
	} {
		b.Run(in.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := place.BuildPlan(context.Background(), a, in.staged, place.Default()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
