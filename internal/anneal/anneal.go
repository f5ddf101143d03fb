// Package anneal provides the generic simulated-annealing engine used by
// ZAC's initial qubit placement (paper §V-A, citing Van Laarhoven & Aarts).
// The engine is deliberately small: a geometric cooling schedule, a
// user-supplied neighbor move with undo, and deterministic behaviour under a
// seeded RNG so experiment outputs are reproducible.
package anneal

import (
	"math"
	"math/rand"
)

// DeltaProblem is the interface a state must implement to be annealed.
// Cost returns the current objective value (lower is better). ProposeDelta
// mutates the state into a random neighbour and returns the resulting total
// cost, re-evaluating only the objective terms its move touched, plus a
// record of the move; Undo reverts one. The engine undoes records in
// reverse order of proposal, so Undo may read the state the move left. The
// cost must be bit-identical to a full Cost() recomputation, so a delta
// state anneals exactly as a full recomputation with the same RNG would.
type DeltaProblem[M any] interface {
	Cost() float64
	ProposeDelta(r *rand.Rand) (next float64, move M)
	Undo(move M)
}

// Options tunes the annealing schedule.
type Options struct {
	// Iterations is the total number of proposals (the paper uses a
	// 1000-iteration limit for initial placement).
	Iterations int
	// InitialTemp is the starting temperature. If zero, it is calibrated to
	// the initial cost (10% of it, floor 1e-6).
	InitialTemp float64
	// Cooling is the geometric cooling factor per iteration (default 0.995).
	Cooling float64
	// Plateau stops early after this many consecutive non-improving
	// iterations (0 disables early stopping).
	Plateau int
}

// Result reports the outcome of a RunDelta.
type Result struct {
	InitialCost float64
	BestCost    float64
	Iterations  int
	Accepted    int
}

// RunDelta anneals p in place and leaves it in the best state visited. The
// caller supplies the RNG for determinism.
func RunDelta[M any](p DeltaProblem[M], opts Options, r *rand.Rand) Result {
	if opts.Iterations <= 0 {
		opts.Iterations = 1000
	}
	if opts.Cooling <= 0 || opts.Cooling >= 1 {
		opts.Cooling = 0.995
	}
	cur := p.Cost()
	res := Result{InitialCost: cur, BestCost: cur}
	temp := opts.InitialTemp
	if temp <= 0 {
		temp = math.Max(math.Abs(cur)*0.1, 1e-6)
	}

	// Keep the accepted moves since the best state visited, so the end of
	// the run can rewind to it without snapshotting states.
	var sinceBest []M
	stale := 0
	for it := 0; it < opts.Iterations; it++ {
		next, move := p.ProposeDelta(r)
		delta := next - cur
		if delta <= 0 || r.Float64() < math.Exp(-delta/temp) {
			cur = next
			res.Accepted++
			sinceBest = append(sinceBest, move)
			if cur < res.BestCost-1e-12 {
				res.BestCost = cur
				sinceBest = sinceBest[:0]
				stale = 0
			} else {
				stale++
			}
		} else {
			p.Undo(move)
			stale++
		}
		temp *= opts.Cooling
		res.Iterations = it + 1
		if opts.Plateau > 0 && stale >= opts.Plateau {
			break
		}
	}
	// Rewind to the best state visited.
	for i := len(sinceBest) - 1; i >= 0; i-- {
		p.Undo(sinceBest[i])
	}
	return res
}
