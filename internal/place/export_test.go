package place

import "zac/internal/circuit"

// BoundCheck is one reuse transition of a replayed plan: the no-reuse
// candidate's lower bound and solved cost, the reuse candidate's cost, and
// the cost of the transition the plan committed.
type BoundCheck struct {
	Bound, NoReuse, Reuse, Chosen float64
}

// ReplayNoReuseBounds replays p, built by BuildPlan under opts with reuse
// on, transition by transition from its own moves. Before committing each
// reuse transition it solves both candidates from the replayed state and
// evaluates noReuseBound there, as BuildPlan did.
func ReplayNoReuseBounds(p *Plan, opts Options) ([]BoundCheck, error) {
	opts.fill()
	pl := newPlanner(p.Arch, opts, p.Initial, nil, newTransitionScratch(p.Arch, p.NumQubits), nil)
	ryd := p.Staged.RydbergStages()
	var checks []BoundCheck
	for t := range p.Steps {
		var next []circuit.Gate
		if t+1 < len(ryd) {
			next = p.Staged.Stages[ryd[t+1]].Gates
		}
		cur, committed := p.Steps[t].Gates, transitionSolution{movesIn: p.Steps[t].MovesIn}
		if t == 0 {
			pl.commit(nil, committed)
			continue
		}
		prev := p.Steps[t-1] // a copy: commit rewrites its MovesOut
		reuse, err := pl.solveTransition(&prev, cur, next, true)
		if err != nil {
			return nil, err
		}
		alt, err := pl.solveTransition(&prev, cur, next, false)
		if err != nil {
			return nil, err
		}
		committed.movesOut = prev.MovesOut
		for _, ms := range [][]Move{committed.movesIn, committed.movesOut} {
			for _, m := range ms {
				committed.cost += moveCost(p.Arch, m.From.Point(p.Arch), m.To.Point(p.Arch))
			}
		}
		checks = append(checks, BoundCheck{
			Bound: pl.noReuseBound(&prev, cur), NoReuse: alt.cost, Reuse: reuse.cost, Chosen: committed.cost,
		})
		pl.commit(&prev, committed)
	}
	return checks, nil
}
