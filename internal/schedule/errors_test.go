package schedule

import (
	"context"
	"errors"
	"strings"
	"testing"

	"zac/internal/arch"
	"zac/internal/place"
	"zac/internal/resynth"
)

// TestBuildRejectsNoAODs pins the precondition error: without an AOD array
// there is nothing to schedule movements onto.
func TestBuildRejectsNoAODs(t *testing.T) {
	a := arch.Reference()
	staged, plan := compilePlan(t, a, ghz(4), place.Default())
	noAODs := *a
	noAODs.AODs = nil
	_, err := BuildWithOptions(context.Background(), &noAODs, staged, plan, Options{})
	if err == nil || !strings.Contains(err.Error(), "no AODs") {
		t.Fatalf("err = %v, want no-AODs error", err)
	}
}

// TestBuildRejectsShortPlan covers the plan/stage alignment check: a plan
// with fewer steps than the circuit has Rydberg stages must fail, not
// silently drop stages.
func TestBuildRejectsShortPlan(t *testing.T) {
	a := arch.Reference()
	staged, plan := compilePlan(t, a, ghz(6), place.Default())
	if len(plan.Steps) < 2 {
		t.Fatalf("need ≥2 steps, have %d", len(plan.Steps))
	}
	truncated := *plan
	truncated.Steps = plan.Steps[:1]
	_, err := BuildWithOptions(context.Background(), a, staged, &truncated, Options{})
	if err == nil || !strings.Contains(err.Error(), "plan has") {
		t.Fatalf("err = %v, want short-plan error", err)
	}
}

// TestBuildRejectsMisalignedStep covers the per-step index check: a step
// claiming the wrong stage index must fail.
func TestBuildRejectsMisalignedStep(t *testing.T) {
	a := arch.Reference()
	staged, plan := compilePlan(t, a, ghz(6), place.Default())
	shifted := *plan
	shifted.Steps = append([]place.Step(nil), plan.Steps...)
	shifted.Steps[0].StageIdx += 1
	_, err := BuildWithOptions(context.Background(), a, staged, &shifted, Options{})
	if err == nil || !strings.Contains(err.Error(), "maps to stage") {
		t.Fatalf("err = %v, want misaligned-step error", err)
	}
}

// TestBuildRejectsCyclicMoves covers the incompatible-move-group path: a
// movement phase whose trap-succession graph is a true cycle (two qubits
// swapping entanglement sites in one phase) cannot be realized even by
// single-move jobs, so Build must surface errCyclicJobs instead of emitting
// an unexecutable program.
func TestBuildRejectsCyclicMoves(t *testing.T) {
	a := arch.Reference()
	staged, plan := compilePlan(t, a, pairs(16), place.Default())
	if len(plan.Steps) < 2 || len(plan.Steps[1].Sites) < 2 {
		t.Fatalf("need a wide second step, have %+v", plan.Steps)
	}
	// Corrupt the second step's move-in phase into a site swap: qubit x
	// moves s0→s1 while qubit y moves s1→s0. Each job's target is the other
	// job's source, so the dependency graph is cyclic even as singles.
	s0 := plan.Steps[1].Sites[0]
	s1 := plan.Steps[1].Sites[1]
	if s0 == s1 {
		t.Fatalf("need two distinct sites")
	}
	cyc := *plan
	cyc.Steps = append([]place.Step(nil), plan.Steps...)
	step := cyc.Steps[1]
	step.MovesIn = []place.Move{
		{Qubit: 0, From: place.SitePos(s0, 0), To: place.SitePos(s1, 0)},
		{Qubit: 1, From: place.SitePos(s1, 0), To: place.SitePos(s0, 0)},
	}
	cyc.Steps[1] = step
	_, err := BuildWithOptions(context.Background(), a, staged, &cyc, Options{})
	if !errors.Is(err, errCyclicJobs) {
		t.Fatalf("err = %v, want errCyclicJobs", err)
	}
}

// TestBuildCancelled verifies the context reaches the stage walk.
func TestBuildCancelled(t *testing.T) {
	a := arch.Reference()
	staged, plan := compilePlan(t, a, ghz(6), place.Default())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := BuildWithOptions(ctx, a, staged, plan, Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestBuildPlanCancelled verifies the context reaches the placement stage
// loop too.
func TestBuildPlanCancelled(t *testing.T) {
	a := arch.Reference()
	staged, err := resynth.Preprocess(ghz(6))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := place.BuildPlan(ctx, a, staged, place.Default()); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
