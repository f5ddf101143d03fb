package place

import (
	"context"
	"math/rand"
	"testing"

	"zac/internal/arch"
	"zac/internal/bench"
	"zac/internal/circuit"
	"zac/internal/resynth"
)

// Micro-benchmarks over the placement hot path: run with
//
//	go test ./internal/place -run xxx -bench 'BenchmarkSAInitial|BenchmarkBuildPlan' -benchmem
//
// or via scripts/bench-regress.sh, which gates them A/B against a git ref.

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

// BenchmarkSAInitial measures the §V-A simulated-annealing initial placement
// (1000 iterations, the paper's budget) on the densest subset circuit.
func BenchmarkSAInitial(b *testing.B) {
	a := arch.Reference()
	staged := stagedFor(b, "qft_n18")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SAInitial(a, staged, 1000, rand.New(rand.NewSource(1))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildPlan measures the full placement pipeline under the paper's
// SA+dynPlace+reuse preset for the two heaviest subset circuits.
func BenchmarkBuildPlan(b *testing.B) {
	a := arch.Reference()
	for _, name := range []string{"qft_n18", "ising_n42"} {
		staged := stagedFor(b, name)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := BuildPlan(context.Background(), a, staged, Default()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
