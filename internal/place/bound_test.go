package place_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"zac/internal/arch"
	"zac/internal/bench"
	"zac/internal/circuit"
	"zac/internal/place"
	"zac/internal/resynth"
	"zac/internal/workload"
)

// forgeSpecs are perfbench's forge-scale inputs, split to site capacity as
// that workload splits them.
var forgeSpecs = []string{
	"qaoa:n=128,p=2,seed=1",
	"qaoa:n=192,p=2,seed=1",
	"ising:n=256,layers=4",
	"shuffle:n=128,depth=40,seed=1",
	"rb:n=64,depth=30,seed=1",
	"clifford:n=64,gates=3000,seed=1",
}

// TestNoReuseBoundIsLowerBound replays every reuse transition of the paper
// circuits (zac and zac-advreuse on the reference architecture), the
// forge-scale specs and wstate_n27 on the three-trap-site architecture. At
// each one it solves the no-reuse candidate that BuildPlan may skip and
// checks that noReuseBound never exceeds its cost. It also checks that the
// replay reaches the state BuildPlan saw (the committed transition costs
// what the cheaper candidate costs) and that the bound skips at least 90%
// of the forge-scale no-reuse solves.
func TestNoReuseBoundIsLowerBound(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the paper and forge-scale corpora; skipped in -short")
	}
	adv := place.Default()
	adv.AdvancedReuse = true
	type input struct {
		name   string
		a      *arch.Architecture
		opts   place.Options
		staged *circuit.Staged
	}
	var corpus []input
	for _, bm := range bench.All() {
		staged, err := resynth.Preprocess(bm.Build())
		if err != nil {
			t.Fatal(err)
		}
		corpus = append(corpus,
			input{"zac/" + bm.Name, arch.Reference(), place.Default(), staged},
			input{"zac-advreuse/" + bm.Name, arch.Reference(), adv, staged})
	}
	for _, spec := range forgeSpecs {
		c, err := workload.Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		staged, err := resynth.Preprocess(c)
		if err != nil {
			t.Fatal(err)
		}
		a := arch.Reference()
		corpus = append(corpus, input{"forge/" + spec, a, place.Default(),
			circuit.SplitRydbergStages(staged, a.TotalSites())})
	}
	corpus = append(corpus, input{"triple/wstate_n27", arch.ReferenceTriple(), place.Default(),
		stagedBench(t, "wstate_n27")})

	groups := []string{"zac", "zac-advreuse", "forge", "triple"}
	total, pruned, cheaper := map[string]int{}, map[string]int{}, map[string]int{}
	for _, in := range corpus {
		p, err := place.BuildPlan(context.Background(), in.a, in.staged, in.opts)
		if err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		checks, err := place.ReplayNoReuseBounds(p, in.opts)
		if err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		g, _, _ := strings.Cut(in.name, "/")
		for i, c := range checks {
			if c.Bound > c.NoReuse {
				t.Errorf("%s transition %d: bound %.17g exceeds the no-reuse cost %.17g", in.name, i+1, c.Bound, c.NoReuse)
			}
			if want := min(c.Reuse, c.NoReuse); c.Chosen != want {
				t.Fatalf("%s transition %d: replay diverged: committed cost %.17g, cheaper candidate %.17g", in.name, i+1, c.Chosen, want)
			}
			total[g]++
			if c.Bound >= c.Reuse {
				pruned[g]++
			}
			if c.NoReuse < c.Reuse {
				cheaper[g]++
			}
		}
	}
	var skips []string
	for _, g := range groups {
		skips = append(skips, fmt.Sprintf("%s %d of %d (no-reuse cheaper on %d)", g, pruned[g], total[g], cheaper[g]))
	}
	t.Logf("no-reuse solves the bound skips: %s", strings.Join(skips, "; "))
	if total["forge"] == 0 || 10*pruned["forge"] < 9*total["forge"] {
		t.Errorf("bound skips %d of %d forge-scale no-reuse solves, want at least 90%%", pruned["forge"], total["forge"])
	}
}
