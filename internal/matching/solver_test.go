package matching

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// MinWeightFullMatching solves the rectangular linear assignment problem with
// the Jonker–Volgenant shortest-augmenting-path method: given an n×m cost
// matrix (n ≤ m) where cost[i][j] is the weight of assigning row i to column
// j and +Inf marks a forbidden pair, it returns an assignment rowTo (rowTo[i]
// = column of row i) of minimum total weight saturating all rows.
//
// This mirrors SciPy's min_weight_full_bipartite_matching, which the paper's
// artifact uses for gate placement and storage-return placement. It is the
// reference Solver's dense and sparse solves must reproduce bit for bit.
func MinWeightFullMatching(cost [][]float64) (rowTo []int, total float64, err error) {
	n := len(cost)
	if n == 0 {
		return nil, 0, nil
	}
	m := len(cost[0])
	for i := range cost {
		if len(cost[i]) != m {
			return nil, 0, errors.New("matching: ragged cost matrix")
		}
	}
	if n > m {
		return nil, 0, errTooManyRows
	}

	inf := math.Inf(1)
	// 1-based arrays per the classic potentials formulation.
	u := make([]float64, n+1)
	v := make([]float64, m+1)
	p := make([]int, m+1) // p[j] = row matched to column j (0 = none)
	way := make([]int, m+1)

	for i := 1; i <= n; i++ {
		p[0] = i
		j0 := 0
		minv := make([]float64, m+1)
		used := make([]bool, m+1)
		for j := range minv {
			minv[j] = inf
		}
		for {
			used[j0] = true
			i0 := p[j0]
			delta := inf
			j1 := -1
			for j := 1; j <= m; j++ {
				if used[j] {
					continue
				}
				cur := cost[i0-1][j-1] - u[i0] - v[j]
				if cur < minv[j] {
					minv[j] = cur
					way[j] = j0
				}
				if minv[j] < delta {
					delta = minv[j]
					j1 = j
				}
			}
			if j1 == -1 || math.IsInf(delta, 1) {
				return nil, 0, ErrNoFullMatching
			}
			for j := 0; j <= m; j++ {
				if used[j] {
					u[p[j]] += delta
					v[j] -= delta
				} else if !math.IsInf(minv[j], 1) {
					minv[j] -= delta
				}
			}
			j0 = j1
			if p[j0] == 0 {
				break
			}
		}
		for j0 != 0 {
			j1 := way[j0]
			p[j0] = p[j1]
			j0 = j1
		}
	}

	rowTo = make([]int, n)
	for j := 1; j <= m; j++ {
		if p[j] > 0 {
			rowTo[p[j]-1] = j - 1
		}
	}
	for i := 0; i < n; i++ {
		total += cost[i][rowTo[i]]
	}
	if math.IsInf(total, 1) || math.IsNaN(total) {
		return nil, 0, ErrNoFullMatching
	}
	return rowTo, total, nil
}

// randomCost builds a random n×m matrix with a given probability of
// +Inf-forbidden entries and optionally negative costs.
func randomCost(r *rand.Rand, n, m int, pInf float64, negative bool) [][]float64 {
	cost := make([][]float64, n)
	for i := range cost {
		cost[i] = make([]float64, m)
		for j := range cost[i] {
			switch {
			case r.Float64() < pInf:
				cost[i][j] = math.Inf(1)
			case negative && r.Float64() < 0.5:
				cost[i][j] = -math.Round(r.Float64()*100) / 4
			default:
				cost[i][j] = math.Round(r.Float64()*100) / 4
			}
		}
	}
	return cost
}

func flatten(cost [][]float64) (int, int, []float64) {
	n := len(cost)
	if n == 0 {
		return 0, 0, nil
	}
	m := len(cost[0])
	flat := make([]float64, 0, n*m)
	for _, row := range cost {
		flat = append(flat, row...)
	}
	return n, m, flat
}

// toCSR converts a dense matrix to the sparse candidate-list form, dropping
// the +Inf entries (absent arcs are forbidden by definition).
func toCSR(cost [][]float64) (rowStart, cols []int, costs []float64) {
	rowStart = []int{0}
	for _, row := range cost {
		for j, c := range row {
			if !math.IsInf(c, 1) {
				cols = append(cols, j)
				costs = append(costs, c)
			}
		}
		rowStart = append(rowStart, len(cols))
	}
	return rowStart, cols, costs
}

// TestSolverMatchesReference is the ISSUE 3 property test: on random
// rectangular matrices (including +Inf-forbidden and negative-cost
// entries), Solver.SolveDense and Solver.SolveSparse must agree exactly —
// same assignment, same total, same infeasibility verdict — with the
// existing MinWeightFullMatching reference implementation. One Solver is
// reused across all iterations, as the placement hot path does.
func TestSolverMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	var s Solver
	for iter := 0; iter < 600; iter++ {
		n := 1 + r.Intn(6)
		m := n + r.Intn(4)
		cost := randomCost(r, n, m, []float64{0, 0.2, 0.6}[iter%3], iter%2 == 1)

		wantTo, wantTotal, wantErr := MinWeightFullMatching(cost)

		fn, fm, flat := flatten(cost)
		gotTo, gotTotal, gotErr := s.SolveDense(fn, fm, flat)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("iter %d: dense err %v, reference err %v (cost %v)", iter, gotErr, wantErr, cost)
		}
		if wantErr == nil {
			if gotTotal != wantTotal {
				t.Fatalf("iter %d: dense total %v, reference %v", iter, gotTotal, wantTotal)
			}
			for i := range wantTo {
				if gotTo[i] != wantTo[i] {
					t.Fatalf("iter %d: dense assignment %v, reference %v", iter, gotTo, wantTo)
				}
			}
		}

		rowStart, colsIdx, costs := toCSR(cost)
		spTo, spTotal, spErr := s.SolveSparse(fn, fm, rowStart, colsIdx, costs)
		if (wantErr == nil) != (spErr == nil) {
			t.Fatalf("iter %d: sparse err %v, reference err %v (cost %v)", iter, spErr, wantErr, cost)
		}
		if wantErr == nil {
			if spTotal != wantTotal {
				t.Fatalf("iter %d: sparse total %v, reference %v", iter, spTotal, wantTotal)
			}
			for i := range wantTo {
				if spTo[i] != wantTo[i] {
					t.Fatalf("iter %d: sparse assignment %v, reference %v", iter, spTo, wantTo)
				}
			}
		}
	}
}

// bandedCSR builds a placement-shaped sparse instance: n rows over m
// columns, row i's arcs a contiguous band of about deg columns around
// column i·m/n with a few holes, so neighbouring rows overlap heavily the
// way k-neighbour candidate sets do. Costs are quarter steps, so ties are
// common, and each row's arcs are shuffled, as candidate order is not
// column order. With block > 1 a run of block rows shares one band of
// block-1 columns, which no full matching can saturate.
func bandedCSR(r *rand.Rand, n, m, deg, block int) (rowStart, cols []int, costs []float64) {
	rowStart = []int{0}
	b0 := -1
	if block > 1 {
		b0 = r.Intn(n - block + 1)
	}
	for i := 0; i < n; i++ {
		lo, w := 0, min(deg, m)
		if b0 >= 0 && i >= b0 && i < b0+block {
			lo, w = b0*m/n, block-1
		} else {
			lo = i*m/n - w/2 + r.Intn(7) - 3
		}
		lo = max(0, min(lo, m-w))
		start := len(cols)
		for j := lo; j < lo+w; j++ {
			if w > block && r.Intn(10) == 0 {
				continue
			}
			cols = append(cols, j)
			costs = append(costs, float64(r.Intn(160))/4)
		}
		r.Shuffle(len(cols)-start, func(a, b int) {
			cols[start+a], cols[start+b] = cols[start+b], cols[start+a]
			costs[start+a], costs[start+b] = costs[start+b], costs[start+a]
		})
		rowStart = append(rowStart, len(cols))
	}
	return rowStart, cols, costs
}

// denseFromCSR expands a CSR instance into the +Inf-filled matrix
// MinWeightFullMatching takes.
func denseFromCSR(n, m int, rowStart, cols []int, costs []float64) [][]float64 {
	cost := make([][]float64, n)
	for i := range cost {
		cost[i] = make([]float64, m)
		for j := range cost[i] {
			cost[i][j] = math.Inf(1)
		}
		for a := rowStart[i]; a < rowStart[i+1]; a++ {
			cost[i][cols[a]] = costs[a]
		}
	}
	return cost
}

// TestSolveSparseMatchesReferenceOnPlacementShapes drives SolveSparse at
// the sizes placement produces — up to ~120 rows over ~2n columns with
// 60–80 overlapping arcs per row — where a row's search takes many
// augmenting steps and the frontier grows, shrinks and is swap-removed
// from. Every instance must agree exactly with MinWeightFullMatching on the
// dense expansion: same assignment, same total, same error. One Solver
// serves every iteration, so a solve that fails with ErrNoFullMatching is
// always followed by one that must not see its leftover marks.
func TestSolveSparseMatchesReferenceOnPlacementShapes(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	var s Solver
	infeasible := 0
	for iter := 0; iter < 120; iter++ {
		n := 1 + r.Intn(120)
		m := 2*n - r.Intn(n/2+1)
		block := 0
		if iter%4 == 1 && n >= 3 {
			block = 2 + r.Intn(min(n, 8)-1)
		}
		rowStart, cols, costs := bandedCSR(r, n, m, 60+r.Intn(21), block)
		wantTo, wantTotal, wantErr := MinWeightFullMatching(denseFromCSR(n, m, rowStart, cols, costs))
		gotTo, gotTotal, gotErr := s.SolveSparse(n, m, rowStart, cols, costs)
		if gotErr != wantErr {
			t.Fatalf("iter %d (n=%d m=%d): err %v, reference %v", iter, n, m, gotErr, wantErr)
		}
		if wantErr != nil {
			infeasible++
			continue
		}
		if gotTotal != wantTotal {
			t.Fatalf("iter %d (n=%d m=%d): total %v, reference %v", iter, n, m, gotTotal, wantTotal)
		}
		for i := range wantTo {
			if gotTo[i] != wantTo[i] {
				t.Fatalf("iter %d (n=%d m=%d): row %d → %d, reference %d", iter, n, m, i, gotTo[i], wantTo[i])
			}
		}
	}
	if infeasible == 0 || infeasible > 60 {
		t.Fatalf("%d of 120 instances infeasible; the generator should mix both verdicts", infeasible)
	}
}

func TestSolverEmptyAndDegenerate(t *testing.T) {
	var s Solver
	if rowTo, total, err := s.SolveDense(0, 0, nil); err != nil || total != 0 || rowTo != nil {
		t.Fatalf("empty dense: %v %v %v", rowTo, total, err)
	}
	if rowTo, total, err := s.SolveSparse(0, 0, []int{0}, nil, nil); err != nil || total != 0 || rowTo != nil {
		t.Fatalf("empty sparse: %v %v %v", rowTo, total, err)
	}
	if _, _, err := s.SolveDense(2, 1, []float64{1, 2}); err == nil {
		t.Fatal("expected error for n > m")
	}
	if _, _, err := s.SolveSparse(2, 1, []int{0, 1, 2}, []int{0, 0}, []float64{1, 2}); err == nil {
		t.Fatal("expected error for n > m")
	}
	// A row with no arcs is infeasible.
	if _, _, err := s.SolveSparse(1, 2, []int{0, 0}, nil, nil); err != ErrNoFullMatching {
		t.Fatalf("expected ErrNoFullMatching, got %v", err)
	}
}

// TestSolverShrinksAndRegrows makes sure scratch reuse across differently
// sized problems cannot leak state between solves.
func TestSolverShrinksAndRegrows(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	var s Solver
	var fresh Solver
	sizes := [][2]int{{5, 7}, {2, 2}, {6, 6}, {1, 4}, {4, 5}}
	for iter := 0; iter < 50; iter++ {
		n, m := sizes[iter%len(sizes)][0], sizes[iter%len(sizes)][1]
		cost := randomCost(r, n, m, 0.2, false)
		_, fm, flat := flatten(cost)
		gotTo, gotTotal, gotErr := s.SolveDense(n, fm, flat)
		wantTo, wantTotal, wantErr := fresh.SolveDense(n, fm, flat)
		if (gotErr == nil) != (wantErr == nil) || (gotErr == nil && gotTotal != wantTotal) {
			t.Fatalf("iter %d: reused solver diverged: %v/%v vs %v/%v", iter, gotTo, gotTotal, wantTo, wantTotal)
		}
		fresh = Solver{}
	}
}

// BenchmarkJVDense measures the reusable dense solve; the acceptance
// criterion is 0 allocs/op after warm-up (run with -benchmem).
func BenchmarkJVDense(b *testing.B) {
	r := rand.New(rand.NewSource(3))
	n := 80
	flat := make([]float64, n*n)
	for i := range flat {
		flat[i] = r.Float64() * 100
	}
	var s Solver
	if _, _, err := s.SolveDense(n, n, flat); err != nil { // warm up the scratch
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.SolveDense(n, n, flat); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJVSparse measures the candidate-list solve on a gate-placement
// shaped instance: each row sees only a ~25-column neighborhood of a much
// wider site grid, as place.Options' δ-expansion produces.
func BenchmarkJVSparse(b *testing.B) {
	r := rand.New(rand.NewSource(3))
	n, m, deg := 40, 400, 25
	var rowStart, cols []int
	var costs []float64
	rowStart = append(rowStart, 0)
	for i := 0; i < n; i++ {
		base := r.Intn(m - deg)
		for d := 0; d < deg; d++ {
			cols = append(cols, base+d)
			costs = append(costs, r.Float64()*100)
		}
		rowStart = append(rowStart, len(cols))
	}
	var s Solver
	if _, _, err := s.SolveSparse(n, m, rowStart, cols, costs); err != nil { // warm up
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.SolveSparse(n, m, rowStart, cols, costs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJVSparseReturns measures a storage-return shaped solve: ~90
// qubits over a ~190-trap union of candidate boxes, ~70 overlapping arcs
// per row, quarter-step costs. Like BenchmarkJVSparse it must stay at 0
// allocs/op after warm-up.
func BenchmarkJVSparseReturns(b *testing.B) {
	r := rand.New(rand.NewSource(5))
	n, m := 90, 190
	rowStart, cols, costs := bandedCSR(r, n, m, 70, 0)
	var s Solver
	if _, _, err := s.SolveSparse(n, m, rowStart, cols, costs); err != nil { // warm up
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.SolveSparse(n, m, rowStart, cols, costs); err != nil {
			b.Fatal(err)
		}
	}
}
