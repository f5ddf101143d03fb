package core_test

import (
	"context"
	"fmt"
	"testing"

	"zac/internal/arch"
	"zac/internal/circuit"
	"zac/internal/core"
	"zac/internal/resynth"
	"zac/internal/workload"
)

// BenchmarkStandardOverlap runs the whole core.Standard pipeline on
// forge-scale's largest QAOA spec, split to site capacity as that workload
// splits it, at Workers 1 and 2. At Workers 2 the pipeline schedules each
// placement step on its own goroutine while placement solves the next;
// at Workers 1 it schedules after placement. BenchmarkBuildPlanSched runs
// the two passes in sequence and cannot see the overlap. Run with
//
//	go test ./internal/core -run xxx -bench BenchmarkStandardOverlap -benchmem
func BenchmarkStandardOverlap(b *testing.B) {
	a := arch.Reference()
	c, err := workload.Build("qaoa:n=192,p=2,seed=1")
	if err != nil {
		b.Fatal(err)
	}
	staged, err := resynth.Preprocess(c)
	if err != nil {
		b.Fatal(err)
	}
	staged = circuit.SplitRydbergStages(staged, a.TotalSites())
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("forge_qaoa_n192/workers=%d", workers), func(b *testing.B) {
			opts := core.Default()
			opts.Place.Workers = workers
			b.ReportAllocs()
			for b.Loop() {
				if _, err := core.Standard().Run(context.Background(), staged, a, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
