package place

import (
	"fmt"
	"math"
	"math/rand"

	"zac/internal/anneal"
	"zac/internal/arch"
	"zac/internal/circuit"
	"zac/internal/geom"
)

// TrivialInitial places qubits sequentially by index starting from the first
// storage trap in the row nearest to the (first) entanglement zone — the
// paper's 'Vanilla' initial placement (§VII-D). The nearest-row-first
// ordering is precomputed once per architecture (arch topology tables).
func TrivialInitial(a *arch.Architecture, numQubits int) ([]arch.TrapRef, error) {
	if numQubits > a.TotalStorageTraps() {
		return nil, fmt.Errorf("place: %d qubits exceed %d storage traps", numQubits, a.TotalStorageTraps())
	}
	traps := a.StorageTrapsNearestFirst()
	out := make([]arch.TrapRef, numQubits)
	copy(out, traps[:numQubits])
	return out, nil
}

// gateForCost is a precomputed 2Q-gate record for the SA objective.
type gateForCost struct {
	q1, q2 int
	weight float64 // w_g = max(0.1, 1 − 0.1(t−1)), t = Rydberg stage (1-based)
}

// collectWeightedGates appends every CZ with its stage-decay weight (Eq. 2)
// to gates.
func collectWeightedGates(gates []gateForCost, s *circuit.Staged) []gateForCost {
	stage := 0
	for _, st := range s.Stages {
		if st.Kind != circuit.RydbergStage {
			continue
		}
		stage++
		w := math.Max(0.1, 1-0.1*float64(stage-1))
		for _, g := range st.Gates {
			gates = append(gates, gateForCost{q1: g.Qubits[0], q2: g.Qubits[1], weight: w})
		}
	}
	return gates
}

// saState is the annealing state: an injective map qubit → storage trap.
// The Eq. 2 objective is evaluated incrementally: per-gate contributions are
// cached in costs and a proposal re-evaluates only the gates adjacent to the
// moved qubit(s) (via the gatesOf index); the total is then re-summed over
// the cache in gate order, so it stays bit-identical to a full Cost()
// recomputation and annealing trajectories match the non-incremental engine.
type saState struct {
	a      *arch.Architecture
	gates  []gateForCost
	trapOf []arch.TrapRef
	pts    []geom.Point   // cached physical positions per qubit
	near   []arch.SiteRef // cached NearestSite per qubit (trap-ordinal table)
	// free traps for jump moves
	free    []arch.TrapRef
	occ     []int32   // trap ordinal → qubit (-1 = empty)
	gatesOf [][]int32 // qubit → indices into gates
	costs   []float64 // cached weighted contribution per gate
}

// placeQubit moves q to trap ordinal ord, updating every per-qubit cache.
func (s *saState) placeQubit(q, ord int, t arch.TrapRef) {
	s.trapOf[q] = t
	s.occ[ord] = int32(q)
	s.pts[q] = s.a.TrapPosAt(ord)
	s.near[q] = s.a.NearestSiteOfTrap(ord)
}

// gateCostAt recomputes the cached contribution of one gate.
func (s *saState) gateCostAt(gi int32) float64 {
	g := s.gates[gi]
	p1, p2 := s.pts[g.q1], s.pts[g.q2]
	site := s.a.SitePos(nearSiteFromNearest(s.a, s.near[g.q1], s.near[g.q2], p1, p2))
	return g.weight * gateCost2(s.a, site, p1, p2)
}

// refreshGates re-evaluates the gates adjacent to q (and q2 if ≥ 0),
// skipping the shared gates already refreshed through q.
func (s *saState) refreshGates(q, q2 int) {
	for _, gi := range s.gatesOf[q] {
		s.costs[gi] = s.gateCostAt(gi)
	}
	if q2 < 0 {
		return
	}
	for _, gi := range s.gatesOf[q2] {
		g := s.gates[gi]
		if g.q1 == q || g.q2 == q {
			continue
		}
		s.costs[gi] = s.gateCostAt(gi)
	}
}

// sum totals the cached contributions in gate order — the exact accumulation
// order of the pre-optimization full recomputation.
func (s *saState) sum() float64 {
	total := 0.0
	for _, c := range s.costs {
		total += c
	}
	return total
}

func (s *saState) Cost() float64 {
	for i := range s.gates {
		s.costs[i] = s.gateCostAt(int32(i))
	}
	return s.sum()
}

// saMove records one proposal for Undo: a jump of q from the trap now at
// free[fi], a swap of q and q2, or (q2 == q) the lone qubit's no-op.
type saMove struct {
	q, q2, fi int
}

// ProposeDelta implements anneal.DeltaProblem: a jump of a random qubit to a
// random free trap or a swap of two random qubits, then a re-evaluation of
// only the touched gates.
func (s *saState) ProposeDelta(r *rand.Rand) (float64, saMove) {
	n := len(s.trapOf)
	q := r.Intn(n)
	if len(s.free) > 0 && r.Float64() < 0.5 {
		// Jump to a random empty trap.
		fi := r.Intn(len(s.free))
		s.jump(q, fi)
		return s.sum(), saMove{q: q, q2: -1, fi: fi}
	}
	if n == 1 {
		// A lone qubit with no free trap has no neighbor state; the old
		// degenerate self-swap burned an RNG draw on a guaranteed no-op.
		return s.sum(), saMove{q: q, q2: q}
	}
	// Swap two qubits' traps.
	q2 := r.Intn(n)
	for q2 == q {
		q2 = r.Intn(n)
	}
	s.swap(q, q2)
	return s.sum(), saMove{q: q, q2: q2}
}

// Undo implements anneal.DeltaProblem. A jump is its own inverse from the
// state it left (q's old trap is now free[fi]), and so is a swap.
func (s *saState) Undo(m saMove) {
	switch {
	case m.q2 < 0:
		s.jump(m.q, m.fi)
	case m.q2 != m.q:
		s.swap(m.q, m.q2)
	}
}

// jump moves q to the free trap free[fi], which then holds q's old trap.
func (s *saState) jump(q, fi int) {
	newTrap, oldTrap := s.free[fi], s.trapOf[q]
	s.free[fi] = oldTrap
	s.occ[s.a.TrapOrdinal(oldTrap)] = -1
	s.placeQubit(q, s.a.TrapOrdinal(newTrap), newTrap)
	s.refreshGates(q, -1)
}

// swap exchanges the traps of q and q2.
func (s *saState) swap(q, q2 int) {
	s.trapOf[q], s.trapOf[q2] = s.trapOf[q2], s.trapOf[q]
	o1, o2 := s.a.TrapOrdinal(s.trapOf[q]), s.a.TrapOrdinal(s.trapOf[q2])
	s.placeQubit(q, o1, s.trapOf[q])
	s.placeQubit(q2, o2, s.trapOf[q2])
	s.refreshGates(q, q2)
}

// SAInitialWithCost refines the trivial initial placement with simulated
// annealing over Eq. 2 (paper §V-A; 1000-iteration limit by default). The
// candidate trap pool is restricted to a neighborhood of the trivial
// placement large enough to cover every qubit plus slack, keeping the
// search local — in the reference architecture qubits occupy the storage
// rows nearest to the entanglement zone. It also returns the annealed best
// cost, so concurrent restart chains (Options.SARestarts) can be compared
// by (cost, restart index) without recomputing the Eq. 2 objective. The degenerate cases (no
// 2Q gates, or a non-positive iteration budget) report cost 0.
func SAInitialWithCost(a *arch.Architecture, staged *circuit.Staged, iterations int, r *rand.Rand) ([]arch.TrapRef, float64, error) {
	traps, _, cost, err := saInitial(a, staged, iterations, r, new(saState))
	return traps, cost, err
}

// saInitial is SAInitialWithCost plus the storage occupancy of the
// returned placement (trap ordinal → qubit, -1 = free), which the planner
// takes over. The occupancy is nil in the degenerate cases. The annealing
// state is built in st's buffers, which may be a previous run's: the
// occupancy returned is st's, and the traps are the caller's.
func saInitial(a *arch.Architecture, staged *circuit.Staged, iterations int, r *rand.Rand, st *saState) ([]arch.TrapRef, []int32, float64, error) {
	base, err := TrivialInitial(a, staged.NumQubits)
	if err != nil {
		return nil, nil, 0, err
	}
	gates := collectWeightedGates(st.gates[:0], staged)
	st.gates = gates
	if len(gates) == 0 || iterations <= 0 {
		return base, nil, 0, nil
	}

	// Candidate pool: the traps of the trivial placement plus the next rows
	// of slack (2× the qubit count), in the same nearest-row-first order.
	all := a.StorageTrapsNearestFirst()
	poolSize := staged.NumQubits * 2
	if poolSize > len(all) {
		poolSize = len(all)
	}
	pool := all[:poolSize]

	st.a, st.trapOf = a, base
	st.pts = refill(st.pts, staged.NumQubits, geom.Point{})
	st.near = refill(st.near, staged.NumQubits, arch.SiteRef{})
	st.occ = refill(st.occ, a.TrapCount(), -1)
	st.costs = refill(st.costs, len(gates), 0)
	for q, t := range st.trapOf {
		st.placeQubit(q, a.TrapOrdinal(t), t)
	}
	st.free = st.free[:0]
	for _, t := range pool {
		if st.occ[a.TrapOrdinal(t)] < 0 {
			st.free = append(st.free, t)
		}
	}
	// Each qubit's gate list keeps the array an earlier run grew for it.
	st.gatesOf = st.gatesOf[:cap(st.gatesOf)]
	if n := staged.NumQubits - len(st.gatesOf); n > 0 {
		st.gatesOf = append(st.gatesOf, make([][]int32, n)...)
	}
	st.gatesOf = st.gatesOf[:staged.NumQubits]
	for q := range st.gatesOf {
		st.gatesOf[q] = st.gatesOf[q][:0]
	}
	for gi, g := range gates {
		st.gatesOf[g.q1] = append(st.gatesOf[g.q1], int32(gi))
		if g.q2 != g.q1 {
			st.gatesOf[g.q2] = append(st.gatesOf[g.q2], int32(gi))
		}
	}
	res := anneal.RunDelta(st, anneal.Options{Iterations: iterations}, r)
	st.trapOf = nil // the caller's from here on
	return base, st.occ, res.BestCost, nil
}
