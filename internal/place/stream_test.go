package place_test

import (
	"context"
	"encoding/json"
	"testing"

	"zac/internal/arch"
	"zac/internal/circuit"
	"zac/internal/place"
	"zac/internal/resynth"
	"zac/internal/workload"
)

// TestStreamPlanHandsOutFinalSteps checks StreamPlan's contract on a paper
// circuit under classic and advanced reuse and on a forge-scale spec: it
// hands out every step of BuildPlan's plan, in order, as pointers into the
// plan it returns, and no step changes after it is handed out.
func TestStreamPlanHandsOutFinalSteps(t *testing.T) {
	a := arch.Reference()
	c, err := workload.Build("rb:n=64,depth=30,seed=1")
	if err != nil {
		t.Fatal(err)
	}
	forge, err := resynth.Preprocess(c)
	if err != nil {
		t.Fatal(err)
	}
	advanced := place.Default()
	advanced.AdvancedReuse = true
	for _, in := range []struct {
		name   string
		staged *circuit.Staged
		opts   place.Options
	}{
		{"qft_n18", stagedBench(t, "qft_n18"), place.Default()},
		{"qft_n18/advreuse", stagedBench(t, "qft_n18"), advanced},
		{"forge/rb_n64", circuit.SplitRydbergStages(forge, a.TotalSites()), place.Default()},
	} {
		t.Run(in.name, func(t *testing.T) {
			want, err := place.BuildPlan(context.Background(), a, in.staged, in.opts)
			if err != nil {
				t.Fatal(err)
			}
			var (
				building *place.Plan
				handed   []*place.Step
				snaps    []string // each step's JSON when it was handed out
			)
			got, err := place.StreamPlan(context.Background(), a, in.staged, in.opts, func(p *place.Plan, s *place.Step) {
				if building == nil {
					building = p
				} else if p != building {
					t.Fatal("steps handed out with different plans")
				}
				handed = append(handed, s)
				snaps = append(snaps, stepJSON(t, s))
			})
			if err != nil {
				t.Fatal(err)
			}
			if building != got {
				t.Error("the plan handed out is not the plan returned")
			}
			if len(handed) != len(got.Steps) {
				t.Fatalf("handed out %d steps, plan has %d", len(handed), len(got.Steps))
			}
			for i, s := range handed {
				if s != &got.Steps[i] {
					t.Fatalf("step %d handed out is not plan step %d", i, i)
				}
				if stepJSON(t, s) != snaps[i] {
					t.Errorf("step %d changed after it was handed out", i)
				}
			}
			if stepsJSON(t, got) != stepsJSON(t, want) {
				t.Error("StreamPlan's plan differs from BuildPlan's")
			}
		})
	}
}

func stepJSON(t *testing.T, s *place.Step) string {
	t.Helper()
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func stepsJSON(t *testing.T, p *place.Plan) string {
	t.Helper()
	data, err := json.Marshal(struct {
		Initial []arch.TrapRef
		Steps   []place.Step
	}{p.Initial, p.Steps})
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}
