package matching

import (
	"errors"
	"math"
)

// errTooManyRows reports an n > m problem, which can never be fully matched.
var errTooManyRows = errors.New("matching: more rows than columns; no full matching possible")

// Solver is a reusable Jonker–Volgenant assignment solver. It owns the
// per-row scratch (potentials, shortest-path labels, visited flags, and
// SolveSparse's frontier) that MinWeightFullMatching allocates per call,
// growing the buffers on demand and reusing them across solves: after
// warm-up a solve performs zero heap allocations (verified by
// BenchmarkJVDense, BenchmarkJVSparse and BenchmarkJVSparseReturns with
// -benchmem). A zero Solver is ready to use; a Solver must not be used
// concurrently.
//
// SolveDense and SolveSparse run the exact same arithmetic as
// MinWeightFullMatching on every column the search labels, over the same
// edge set, and pick the same column on ties, so all three produce
// bit-identical assignments and totals.
type Solver struct {
	u, v  []float64
	minv  []float64
	used  []bool
	p     []int // p[j] = row matched to column j (1-based; 0 = none)
	way   []int
	rowTo []int

	// SolveSparse's per-row search state. The frontier is the labelled,
	// unvisited columns as parallel (column, minv) arrays; slot[j] is
	// column j's frontier index plus one (0 = unlabelled). tree lists the
	// visited columns. slot is all zero between rows.
	fcol []int
	fval []float64
	slot []int
	tree []int
}

// grow sizes the scratch for an n×m problem and resets the state that must
// start zeroed. The minv/used arrays are re-initialized per row inside the
// solve loops, exactly as the allocating implementation does.
func (s *Solver) grow(n, m int) {
	if cap(s.u) < n+1 {
		s.u = make([]float64, n+1)
	}
	s.u = s.u[:n+1]
	for i := range s.u {
		s.u[i] = 0
	}
	need := m + 1
	if cap(s.v) < need {
		s.v = make([]float64, need)
		s.minv = make([]float64, need)
		s.used = make([]bool, need)
		s.p = make([]int, need)
		s.way = make([]int, need)
	}
	s.v, s.minv, s.used = s.v[:need], s.minv[:need], s.used[:need]
	s.p, s.way = s.p[:need], s.way[:need]
	for j := 0; j < need; j++ {
		s.v[j] = 0
		s.p[j] = 0
		s.way[j] = 0
	}
	if cap(s.rowTo) < n {
		s.rowTo = make([]int, n)
	}
	s.rowTo = s.rowTo[:n]
}

// finish extracts the assignment from the matched-column array and totals it
// via the provided per-row cost lookup.
func (s *Solver) finish(n, m int, costAt func(i, j int) float64) ([]int, float64, error) {
	for j := 1; j <= m; j++ {
		if s.p[j] > 0 {
			s.rowTo[s.p[j]-1] = j - 1
		}
	}
	total := 0.0
	for i := 0; i < n; i++ {
		total += costAt(i, s.rowTo[i])
	}
	if math.IsInf(total, 1) || math.IsNaN(total) {
		return nil, 0, ErrNoFullMatching
	}
	return s.rowTo, total, nil
}

// SolveDense solves the n×m assignment problem over a row-major flat cost
// slice (len n*m; +Inf marks a forbidden pair). The returned assignment
// slice is owned by the Solver and valid until the next solve.
func (s *Solver) SolveDense(n, m int, cost []float64) ([]int, float64, error) {
	if n == 0 {
		return nil, 0, nil
	}
	if n > m {
		return nil, 0, errTooManyRows
	}
	s.grow(n, m)
	inf := math.Inf(1)
	for i := 1; i <= n; i++ {
		s.p[0] = i
		j0 := 0
		for j := range s.minv {
			s.minv[j] = inf
			s.used[j] = false
		}
		for {
			s.used[j0] = true
			i0 := s.p[j0]
			delta := inf
			j1 := -1
			row := cost[(i0-1)*m:]
			for j := 1; j <= m; j++ {
				if s.used[j] {
					continue
				}
				cur := row[j-1] - s.u[i0] - s.v[j]
				if cur < s.minv[j] {
					s.minv[j] = cur
					s.way[j] = j0
				}
				if s.minv[j] < delta {
					delta = s.minv[j]
					j1 = j
				}
			}
			if j1 == -1 || math.IsInf(delta, 1) {
				return nil, 0, ErrNoFullMatching
			}
			for j := 0; j <= m; j++ {
				if s.used[j] {
					s.u[s.p[j]] += delta
					s.v[j] -= delta
				} else if !math.IsInf(s.minv[j], 1) {
					s.minv[j] -= delta
				}
			}
			j0 = j1
			if s.p[j0] == 0 {
				break
			}
		}
		for j0 != 0 {
			j1 := s.way[j0]
			s.p[j0] = s.p[j1]
			j0 = j1
		}
	}
	return s.finish(n, m, func(i, j int) float64 { return cost[i*m+j] })
}

// growFrontier sizes SolveSparse's frontier scratch for m columns and
// clears the visited marks, which SolveDense and a failed solve leave set.
// slot needs no clearing: every row clears the marks of the frontier it
// leaves behind, and a solve only fails once its frontier is empty.
func (s *Solver) growFrontier(m int) {
	need := m + 1
	if cap(s.slot) < need {
		s.slot = make([]int, need)
		s.tree = make([]int, 0, need)
		s.fcol = make([]int, 0, need)
		s.fval = make([]float64, 0, need)
	}
	s.slot = s.slot[:need]
	clear(s.used)
}

// SolveSparse solves the n×m assignment problem over a CSR candidate list:
// row i's arcs are cols[rowStart[i]:rowStart[i+1]] with the matching costs
// slice, and every absent (row, column) pair is forbidden. Columns must not
// repeat within a row. This is the entry point for gate and storage-return
// placement, where each row only ever sees the k-neighbor candidate columns
// place.Options restricts it to, and no dense +Inf matrix is materialized.
// The returned assignment slice is owned by the Solver and valid until the
// next solve.
//
// Each augmenting step costs O(frontier + tree + degree), not O(m): a
// column outside the frontier has minv = +Inf, which the dense update
// leaves alone and the delta search never picks, so only frontier entries
// are decremented and searched. The update of step k and the delta search
// of step k+1 are one pass over the frontier; relaxing the new row's arcs
// then only lowers entries, and a lowered entry is ≤ the stale value the
// pass saw, so folding each lowered value into the running minimum yields
// the minimum over the final values. Ties go to the lowest column, the
// dense scan's first strict minimum in ascending column order.
func (s *Solver) SolveSparse(n, m int, rowStart, cols []int, costs []float64) ([]int, float64, error) {
	if n == 0 {
		return nil, 0, nil
	}
	if n > m {
		return nil, 0, errTooManyRows
	}
	s.grow(n, m)
	s.growFrontier(m)
	inf := math.Inf(1)
	used, slot, v, way := s.used, s.slot, s.v, s.way
	for i := 1; i <= n; i++ {
		s.p[0] = i
		j0 := 0
		tree, fcol, fval := s.tree[:0], s.fcol[:0], s.fval[:0]
		delta, j1 := inf, -1 // frontier minimum by (value, column)
		for {
			used[j0] = true
			tree = append(tree, j0)
			i0 := s.p[j0]
			ui := s.u[i0]
			for a := rowStart[i0-1]; a < rowStart[i0]; a++ {
				j := cols[a] + 1
				if used[j] {
					continue
				}
				cur := costs[a] - ui - v[j]
				if k := slot[j]; k == 0 {
					if !(cur < inf) {
						continue
					}
					fcol = append(fcol, j)
					fval = append(fval, cur)
					slot[j] = len(fcol)
				} else if cur < fval[k-1] {
					fval[k-1] = cur
				} else {
					continue
				}
				way[j] = j0
				if cur < delta || cur == delta && j < j1 {
					delta, j1 = cur, j
				}
			}
			if j1 == -1 {
				return nil, 0, ErrNoFullMatching
			}
			// j1 leaves the frontier for the tree (swap-remove).
			k, last := slot[j1]-1, len(fcol)-1
			fcol[k], fval[k] = fcol[last], fval[last]
			slot[fcol[k]] = k + 1
			fcol, fval = fcol[:last], fval[:last]
			slot[j1] = 0
			for _, j := range tree {
				s.u[s.p[j]] += delta
				v[j] -= delta
			}
			j0 = j1
			if s.p[j0] == 0 {
				break
			}
			d := delta
			delta, j1 = inf, -1
			for k, val := range fval {
				val -= d
				fval[k] = val
				if j := fcol[k]; val < delta || val == delta && j < j1 {
					delta, j1 = val, j
				}
			}
		}
		for _, j := range tree {
			used[j] = false
		}
		for _, j := range fcol {
			slot[j] = 0
		}
		for j0 != 0 {
			j1 := way[j0]
			s.p[j0] = s.p[j1]
			j0 = j1
		}
	}
	return s.finish(n, m, func(i, j int) float64 {
		for a := rowStart[i]; a < rowStart[i+1]; a++ {
			if cols[a] == j {
				return costs[a]
			}
		}
		return math.Inf(1)
	})
}
