package resynth_test

import (
	"testing"

	"zac/internal/resynth"
	"zac/internal/workload"
)

// BenchmarkPreprocess measures decompose → 1Q-optimize → ASAP staging on
// forge-scale's largest QAOA spec, the input BenchmarkBuildPlanSched's
// forge case compiles. Run with
//
//	go test ./internal/resynth -run xxx -bench BenchmarkPreprocess -benchmem
//
// or via scripts/bench-regress.sh, which gates it A/B against a git ref.
func BenchmarkPreprocess(b *testing.B) {
	c, err := workload.Build("qaoa:n=192,p=2,seed=1")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := resynth.Preprocess(c); err != nil {
			b.Fatal(err)
		}
	}
}
