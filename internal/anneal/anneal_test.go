package anneal

import (
	"math"
	"math/rand"
	"testing"
)

// closureProblem is a toy state whose Propose returns an undo closure.
type closureProblem interface {
	Cost() float64
	Propose(r *rand.Rand) (undo func())
}

// undoClosures runs a closureProblem through RunDelta: the undo closure is
// the move record.
type undoClosures struct{ closureProblem }

func (c undoClosures) ProposeDelta(r *rand.Rand) (float64, func()) {
	undo := c.Propose(r)
	return c.Cost(), undo
}

func (undoClosures) Undo(undo func()) { undo() }

// run anneals a closureProblem through RunDelta.
func run(p closureProblem, opts Options, r *rand.Rand) Result {
	return RunDelta[func()](undoClosures{p}, opts, r)
}

// quadratic is a toy problem: minimize sum (x_i - target_i)^2 by nudging one
// coordinate at a time.
type quadratic struct {
	x, target []float64
}

func (q *quadratic) Cost() float64 {
	s := 0.0
	for i := range q.x {
		d := q.x[i] - q.target[i]
		s += d * d
	}
	return s
}

func (q *quadratic) Propose(r *rand.Rand) func() {
	i := r.Intn(len(q.x))
	old := q.x[i]
	q.x[i] += (r.Float64() - 0.5) * 2
	return func() { q.x[i] = old }
}

func TestRunImproves(t *testing.T) {
	q := &quadratic{x: []float64{10, -7, 3}, target: []float64{0, 0, 0}}
	r := rand.New(rand.NewSource(1))
	res := run(q, Options{Iterations: 5000}, r)
	if res.BestCost >= res.InitialCost {
		t.Fatalf("no improvement: initial %v best %v", res.InitialCost, res.BestCost)
	}
	if res.BestCost > 5 {
		t.Fatalf("expected near-zero cost, got %v", res.BestCost)
	}
	// State must be left at the best cost found.
	if got := q.Cost(); math.Abs(got-res.BestCost) > 1e-9 {
		t.Fatalf("final state cost %v != best %v", got, res.BestCost)
	}
}

func TestRunDeterministic(t *testing.T) {
	best := func() float64 {
		q := &quadratic{x: []float64{5, 5}, target: []float64{1, -1}}
		r := rand.New(rand.NewSource(42))
		return run(q, Options{Iterations: 2000}, r).BestCost
	}
	if a, b := best(), best(); a != b {
		t.Fatalf("non-deterministic: %v vs %v", a, b)
	}
}

func TestRunDefaults(t *testing.T) {
	q := &quadratic{x: []float64{3}, target: []float64{0}}
	r := rand.New(rand.NewSource(2))
	res := run(q, Options{}, r)
	if res.Iterations != 1000 {
		t.Fatalf("default iterations = %d, want 1000", res.Iterations)
	}
}

func TestRunPlateauStopsEarly(t *testing.T) {
	q := &quadratic{x: []float64{0}, target: []float64{0}} // already optimal
	r := rand.New(rand.NewSource(3))
	res := run(q, Options{Iterations: 10000, Plateau: 50}, r)
	if res.Iterations >= 10000 {
		t.Fatalf("plateau did not stop early: %d iterations", res.Iterations)
	}
}

func TestRunNeverWorsens(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		q := &quadratic{x: []float64{2, -3, 4, 1}, target: []float64{0, 1, 0, -1}}
		init := q.Cost()
		r := rand.New(rand.NewSource(seed))
		res := run(q, Options{Iterations: 300}, r)
		if res.BestCost > init+1e-12 {
			t.Fatalf("seed %d: best %v worse than initial %v", seed, res.BestCost, init)
		}
		if got := q.Cost(); math.Abs(got-res.BestCost) > 1e-9 {
			t.Fatalf("seed %d: final state %v != best %v", seed, got, res.BestCost)
		}
	}
}

// permutation problem exercises undo-correctness: swap two entries.
type perm struct {
	order []int
	pos   []float64
}

func (p *perm) Cost() float64 {
	s := 0.0
	for i, v := range p.order {
		d := float64(i) - p.pos[v]
		s += math.Abs(d)
	}
	return s
}

func (p *perm) Propose(r *rand.Rand) func() {
	i, j := r.Intn(len(p.order)), r.Intn(len(p.order))
	p.order[i], p.order[j] = p.order[j], p.order[i]
	return func() { p.order[i], p.order[j] = p.order[j], p.order[i] }
}

func TestRunPermutation(t *testing.T) {
	n := 12
	p := &perm{order: make([]int, n), pos: make([]float64, n)}
	for i := 0; i < n; i++ {
		p.order[i] = n - 1 - i // reversed
		p.pos[i] = float64(i)
	}
	r := rand.New(rand.NewSource(7))
	res := run(p, Options{Iterations: 20000}, r)
	if res.BestCost > 2 {
		t.Fatalf("permutation not sorted enough: cost %v (order %v)", res.BestCost, p.order)
	}
}

// deltaQuadratic wraps quadratic with an incremental ProposeDelta that
// keeps a per-coordinate contribution cache and refreshes only the touched
// coordinate, mirroring how place's SA state implements
// anneal.DeltaProblem: the total is re-summed over the cache in coordinate
// order so it stays bit-identical to a full Cost() recomputation, and the
// move record is the coordinate and its old value.
type deltaQuadratic struct {
	quadratic
	terms []float64 // cached (x_i - target_i)^2 per coordinate
}

func (q *deltaQuadratic) refresh(i int) {
	d := q.x[i] - q.target[i]
	q.terms[i] = d * d
}

func (q *deltaQuadratic) Cost() float64 {
	for i := range q.x {
		q.refresh(i)
	}
	return q.sum()
}

func (q *deltaQuadratic) sum() float64 {
	s := 0.0
	for _, t := range q.terms {
		s += t
	}
	return s
}

type nudge struct {
	i   int
	old float64
}

func (q *deltaQuadratic) ProposeDelta(r *rand.Rand) (float64, nudge) {
	i := r.Intn(len(q.x))
	old := q.x[i]
	q.x[i] += (r.Float64() - 0.5) * 2
	q.refresh(i)
	return q.sum(), nudge{i, old}
}

func (q *deltaQuadratic) Undo(m nudge) {
	q.x[m.i] = m.old
	q.refresh(m.i)
}

// TestDeltaProblemMatchesFullRecompute runs the same seeded problem through
// a full Cost() recomputation after each Propose and through an incremental
// ProposeDelta; trajectories, results, and final states must match exactly.
func TestDeltaProblemMatchesFullRecompute(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		plain := &quadratic{x: []float64{10, -7, 3, 2}, target: []float64{0, 1, 0, -2}}
		incr := &deltaQuadratic{quadratic: quadratic{
			x:      append([]float64(nil), plain.x...),
			target: append([]float64(nil), plain.target...),
		}}
		incr.terms = make([]float64, len(incr.x))
		resPlain := run(plain, Options{Iterations: 2000}, rand.New(rand.NewSource(seed)))
		resIncr := RunDelta(incr, Options{Iterations: 2000}, rand.New(rand.NewSource(seed)))
		if resPlain != resIncr {
			t.Fatalf("seed %d: results diverge: %+v vs %+v", seed, resPlain, resIncr)
		}
		for i := range plain.x {
			if plain.x[i] != incr.x[i] {
				t.Fatalf("seed %d: final states diverge at %d: %v vs %v", seed, i, plain.x[i], incr.x[i])
			}
		}
	}
}
