package matching

import (
	"context"
	"math"

	"zac/internal/engine"
	"zac/internal/telemetry"
)

// minParallelRows is the problem size below which ParallelSolver always runs
// the plain sequential solve: component discovery costs O(n+m+arcs) and tiny
// stages are solved faster than they can be dispatched.
const minParallelRows = 64

// ParallelSolver solves sparse assignment problems by decomposing the
// bipartite candidate graph into connected components and solving the
// components concurrently, each on its own Solver scratch. Placement stages
// are built from k-neighbor candidate lists, so their graphs can split into
// independent components. Problems under minParallelRows rows, and graphs
// that form one component, take the sequential Solver.SolveSparse, whose
// per-step cost already scales with the columns a row's search touches
// rather than with m.
//
// Results are bit-identical to Solver.SolveSparse by construction:
//
//   - JV dual potentials never cross components (every alternating path stays
//     inside the component of the row being augmented, and the virtual column
//     0 only feeds back into the current row's potential), so solving a
//     component in isolation runs the exact arithmetic the global solve runs
//     on that component's rows and columns.
//   - Within a component, rows are solved in ascending original order and
//     columns are renumbered ascending by original index, preserving the
//     delta-search tie-break (the smallest label, ties to the lowest
//     column).
//   - The total is re-summed over rows in ascending global order afterwards,
//     reproducing the sequential finish() float addition order.
//
// The zero value is ready to use. A ParallelSolver owns its scratch and the
// returned assignment slice (valid until the next solve); it must not be
// used concurrently, though internally it fans components out to workers.
type ParallelSolver struct {
	seq     Solver   // fallback + single-component path
	solvers []Solver // per-bucket scratch, index-owned during a solve

	rowTo []int // global assignment, the returned slice

	// Component labeling scratch.
	rowComp, colComp []int
	queue            []int
	colArcStart      []int // column → incident-row adjacency (counting sort)
	colArcRows       []int

	// Per-component sub-problem layout.
	compRowStart []int // rows of comp c: rowsByComp[compRowStart[c]:compRowStart[c+1]]
	rowsByComp   []int // ascending original row order within each component
	compColStart []int // columns of comp c, ascending original order
	colsByComp   []int
	colLocal     []int // original column → its index within its component
	compArcStart []int
	subRowStart  []int // concatenated per-component CSR row starts
	subCols      []int
	subCosts     []float64
	fill         []int // per-component cursors reused across build passes
}

func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

// SolveSparse solves the same n×m CSR assignment problem as
// Solver.SolveSparse, fanning independent components out to at most
// engine.Workers(workers) goroutines. The context is checked between
// components, so an abandoned compile stops mid-stage. workers <= 1, small
// problems, and single-component graphs run the sequential solve unchanged.
func (p *ParallelSolver) SolveSparse(ctx context.Context, workers, n, m int, rowStart, cols []int, costs []float64) ([]int, float64, error) {
	if n == 0 {
		return nil, 0, nil
	}
	if n > m {
		return nil, 0, errTooManyRows
	}
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	workers = engine.Workers(workers)
	if workers <= 1 || n < minParallelRows {
		return p.seq.SolveSparse(n, m, rowStart, cols, costs)
	}

	numComp := p.label(n, m, rowStart, cols)
	if numComp == 1 {
		return p.seq.SolveSparse(n, m, rowStart, cols, costs)
	}
	if err := p.layout(n, m, numComp, rowStart, cols, costs); err != nil {
		return nil, 0, err
	}

	ctx, span := telemetry.Start(ctx, "jv.parallel")
	defer span.End()
	span.SetInt("rows", n)
	span.SetInt("components", numComp)

	buckets := workers
	if buckets > numComp {
		buckets = numComp
	}
	span.SetInt("workers", buckets)
	if cap(p.solvers) < buckets {
		p.solvers = make([]Solver, buckets)
	}
	p.solvers = p.solvers[:buckets]
	p.rowTo = growInts(p.rowTo, n)

	err := engine.ForEach(ctx, buckets, buckets, func(b int) error {
		s := &p.solvers[b]
		for c := b; c < numComp; c += buckets {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := p.solveComponent(s, c); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}

	// Re-sum in ascending global row order, exactly like Solver.finish.
	total := 0.0
	for i := 0; i < n; i++ {
		total += costAtSparse(i, p.rowTo[i], rowStart, cols, costs)
	}
	if math.IsInf(total, 1) || math.IsNaN(total) {
		return nil, 0, ErrNoFullMatching
	}
	return p.rowTo, total, nil
}

// label assigns every row and column to a connected component of the
// bipartite candidate graph and returns the component count. Zero-arc rows
// get their own column-less component; layout reports them as deficient.
func (p *ParallelSolver) label(n, m int, rowStart, cols []int) int {
	arcs := rowStart[n]
	p.rowComp = growInts(p.rowComp, n)
	p.colComp = growInts(p.colComp, m)
	for i := range p.rowComp {
		p.rowComp[i] = -1
	}
	for j := range p.colComp {
		p.colComp[j] = -1
	}

	// Column → incident rows, by counting sort over the arc list.
	p.colArcStart = growInts(p.colArcStart, m+1)
	for j := 0; j <= m; j++ {
		p.colArcStart[j] = 0
	}
	for a := 0; a < arcs; a++ {
		p.colArcStart[cols[a]+1]++
	}
	for j := 0; j < m; j++ {
		p.colArcStart[j+1] += p.colArcStart[j]
	}
	p.colArcRows = growInts(p.colArcRows, arcs)
	p.fill = growInts(p.fill, m)
	copy(p.fill, p.colArcStart[:m])
	for i := 0; i < n; i++ {
		for a := rowStart[i]; a < rowStart[i+1]; a++ {
			j := cols[a]
			p.colArcRows[p.fill[j]] = i
			p.fill[j]++
		}
	}

	p.queue = growInts(p.queue, n)
	numComp := 0
	for start := 0; start < n; start++ {
		if p.rowComp[start] >= 0 {
			continue
		}
		c := numComp
		numComp++
		p.rowComp[start] = c
		q := p.queue[:0]
		q = append(q, start)
		for len(q) > 0 {
			i := q[len(q)-1]
			q = q[:len(q)-1]
			for a := rowStart[i]; a < rowStart[i+1]; a++ {
				j := cols[a]
				if p.colComp[j] >= 0 {
					continue
				}
				p.colComp[j] = c
				for ca := p.colArcStart[j]; ca < p.colArcStart[j+1]; ca++ {
					r := p.colArcRows[ca]
					if p.rowComp[r] < 0 {
						p.rowComp[r] = c
						q = append(q, r)
					}
				}
			}
		}
	}
	return numComp
}

// layout builds the per-component sub-problems: row lists (ascending
// original order), column lists (ascending original order, with the local
// renumbering), and one packed CSR per component. It rejects deficient
// components (more rows than columns) up front with the same
// ErrNoFullMatching the sequential solve would reach.
func (p *ParallelSolver) layout(n, m, numComp int, rowStart, cols []int, costs []float64) error {
	arcs := rowStart[n]

	p.compRowStart = growInts(p.compRowStart, numComp+1)
	p.compColStart = growInts(p.compColStart, numComp+1)
	p.compArcStart = growInts(p.compArcStart, numComp+1)
	for c := 0; c <= numComp; c++ {
		p.compRowStart[c] = 0
		p.compColStart[c] = 0
		p.compArcStart[c] = 0
	}
	for i := 0; i < n; i++ {
		c := p.rowComp[i]
		p.compRowStart[c+1]++
		p.compArcStart[c+1] += rowStart[i+1] - rowStart[i]
	}
	for j := 0; j < m; j++ {
		if c := p.colComp[j]; c >= 0 {
			p.compColStart[c+1]++
		}
	}
	for c := 0; c < numComp; c++ {
		if p.compRowStart[c+1] > p.compColStart[c+1] {
			return ErrNoFullMatching
		}
		p.compRowStart[c+1] += p.compRowStart[c]
		p.compColStart[c+1] += p.compColStart[c]
		p.compArcStart[c+1] += p.compArcStart[c]
	}

	// Rows per component, ascending original order.
	p.rowsByComp = growInts(p.rowsByComp, n)
	p.fill = growInts(p.fill, numComp)
	copy(p.fill, p.compRowStart[:numComp])
	for i := 0; i < n; i++ {
		c := p.rowComp[i]
		p.rowsByComp[p.fill[c]] = i
		p.fill[c]++
	}

	// Columns per component, ascending original order; colLocal is the
	// order-preserving renumbering used by the sub-CSRs.
	p.colsByComp = growInts(p.colsByComp, p.compColStart[numComp])
	p.colLocal = growInts(p.colLocal, m)
	copy(p.fill, p.compColStart[:numComp])
	for j := 0; j < m; j++ {
		c := p.colComp[j]
		if c < 0 {
			continue
		}
		p.colLocal[j] = p.fill[c] - p.compColStart[c]
		p.colsByComp[p.fill[c]] = j
		p.fill[c]++
	}

	// One packed CSR per component: rows in ascending original order, arc
	// order within a row preserved, columns renumbered via colLocal.
	p.subRowStart = growInts(p.subRowStart, n+numComp)
	p.subCols = growInts(p.subCols, arcs)
	if cap(p.subCosts) < arcs {
		p.subCosts = make([]float64, arcs)
	}
	p.subCosts = p.subCosts[:arcs]
	for c := 0; c < numComp; c++ {
		rs := p.subRowStartOf(c)
		pos := p.compArcStart[c]
		rs[0] = 0
		for k, end := 0, p.compRowStart[c+1]-p.compRowStart[c]; k < end; k++ {
			i := p.rowsByComp[p.compRowStart[c]+k]
			for a := rowStart[i]; a < rowStart[i+1]; a++ {
				p.subCols[pos] = p.colLocal[cols[a]]
				p.subCosts[pos] = costs[a]
				pos++
			}
			rs[k+1] = pos - p.compArcStart[c]
		}
	}
	return nil
}

// subRowStartOf returns component c's slice of the packed CSR row-start
// buffer (length rows(c)+1).
func (p *ParallelSolver) subRowStartOf(c int) []int {
	off := p.compRowStart[c] + c
	return p.subRowStart[off : off+(p.compRowStart[c+1]-p.compRowStart[c])+1]
}

// solveComponent solves component c on the given per-bucket Solver and
// scatters the assignment back to the global row/column numbering. Distinct
// components write disjoint rowTo entries, so no locking is needed.
func (p *ParallelSolver) solveComponent(s *Solver, c int) error {
	nc := p.compRowStart[c+1] - p.compRowStart[c]
	mc := p.compColStart[c+1] - p.compColStart[c]
	if nc == 0 {
		return nil
	}
	a0, a1 := p.compArcStart[c], p.compArcStart[c+1]
	asg, _, err := s.SolveSparse(nc, mc, p.subRowStartOf(c), p.subCols[a0:a1], p.subCosts[a0:a1])
	if err != nil {
		// Component-local failures surface as the sequential solve's
		// ErrNoFullMatching (deficiency was already rejected in layout).
		return ErrNoFullMatching
	}
	for k := 0; k < nc; k++ {
		i := p.rowsByComp[p.compRowStart[c]+k]
		p.rowTo[i] = p.colsByComp[p.compColStart[c]+asg[k]]
	}
	return nil
}

// costAtSparse is finish()'s per-row cost lookup: a linear scan of row i's
// arcs for column j.
func costAtSparse(i, j int, rowStart, cols []int, costs []float64) float64 {
	for a := rowStart[i]; a < rowStart[i+1]; a++ {
		if cols[a] == j {
			return costs[a]
		}
	}
	return math.Inf(1)
}
