package place

import (
	"fmt"
	"slices"

	"zac/internal/arch"
	"zac/internal/circuit"
	"zac/internal/cover"
	"zac/internal/engine"
	"zac/internal/geom"
	"zac/internal/matching"
)

// reuseMatch computes the gate-to-gate reuse matching between two Rydberg
// stages (paper §V-B1): vertices are gates, an edge joins g (previous stage)
// and g′ (next stage) when they share a qubit, and a Hopcroft–Karp maximum
// matching resolves conflicts such as both qubits of one site being
// reusable. It returns, for each gate of next, the index of the previous
// gate whose site it inherits (or -1), in a scratch slice valid until the
// next call.
//
// A stage holds each qubit at most once (circuit.Staged.Validate), so a
// by-qubit index over next hands each previous gate its at most arity
// partners directly instead of testing every gate pair. Each adjacency row
// lists its partners ascending and once, as the pair scan did: the
// matching Hopcroft–Karp finds depends on that order.
func (sc *transitionScratch) reuseMatch(prev, next []circuit.Gate) []int {
	for j, h := range next {
		for _, q := range h.Qubits {
			sc.gateOf[q] = int32(j)
		}
	}
	arity := 0
	for _, g := range prev {
		arity += len(g.Qubits)
	}
	// The rows are windows of one backing array, grown up front so that
	// appending never moves a row already taken.
	back := slices.Grow(sc.adjBack[:0], arity)
	sc.adj = sc.adj[:0]
	for _, g := range prev {
		start := len(back)
		for _, q := range g.Qubits {
			if j := int(sc.gateOf[q]); j >= 0 && !slices.Contains(back[start:], j) {
				back = append(back, j)
			}
		}
		slices.Sort(back[start:])
		sc.adj = append(sc.adj, back[start:len(back):len(back)])
	}
	sc.adjBack = back
	for _, h := range next {
		for _, q := range h.Qubits {
			sc.gateOf[q] = -1
		}
	}
	matchL, _ := sc.hk.Match(sc.adj, len(next))
	out := sc.reuseOf[:0]
	for range next {
		out = append(out, -1)
	}
	for i, j := range matchL {
		if j >= 0 {
			out[j] = i
		}
	}
	sc.reuseOf = out
	return out
}

// transitionScratch holds every reusable buffer of one plan: the state of a
// single annealing chain, the planner's position, home and occupancy
// tables, the JV and Hopcroft–Karp solvers with their
// scratch, dense site/trap column indexes (reset through touched lists), the
// qubit-sized flag arrays that replaced the per-solve reserved/stay/banned
// maps, and the CSR arc arrays fed to the sparse JV solves. A plan solves
// every candidate on one scratch, which it takes from scratchFree and
// returns there once the plan is built, so a steady stream of compiles
// reuses a few scratches instead of growing one per compile. Nothing a plan
// returns may point into its scratch. A scratch must not be shared between
// concurrent plans.
type transitionScratch struct {
	solver matching.Solver
	hk     matching.HopcroftKarp

	sa   saState        // single-chain annealing; its occ becomes planner.occ
	pos  []Pos          // planner.pos
	home []arch.TrapRef // planner.home
	occ  []int32        // planner.occ when the annealer left none

	posView []Pos

	reserved []bool  // by site ordinal; reset via the sites union list
	stay     []bool  // by qubit; cleared per solve
	banned   []bool  // by qubit; cleared per solveTransition
	related  []int32 // by qubit → next-stage partner, -1 = none

	lookahead []int32 // by gate index in cur → partner qubit, -1 = none
	gateIdx   []int

	// reuse matching: next-stage gate by qubit (-1 = none; reset after
	// each call), adjacency rows over one backing array, and the result
	gateOf  []int32
	adjBack []int
	adj     [][]int
	reuseOf []int // by gate index in next

	// union-column machinery shared by gate and return placement
	sites   []arch.SiteRef
	siteCol []int32 // by site ordinal → dense column, -1 = unseen
	traps   []int32 // trap ordinals
	trapCol []int32 // by trap ordinal → dense column, -1 = unseen

	// flattened per-row candidate lists (CSR layout)
	cands    []arch.SiteRef
	candRow  []int
	tcands   []int32 // trap ordinals
	tcandRow []int

	// sparse matching arcs
	rowStart []int
	cols     []int
	costs    []float64

	assignSites []arch.SiteRef
	assignTraps []arch.TrapRef
	ptsBuf      []geom.Point
	leaving     []int

	// slot assignment
	slotTaken []bool
	pending   []int

	// findMoveCycle state
	moveAt     []int32 // by site-slot key → move index, -1
	srcTouched []int
	zoneMoves  []int
	mstate     []int8
	mpath      []int
}

// scratchFree holds the scratches of finished plans for the next ones.
var scratchFree engine.FreeList[*transitionScratch]

// getScratch takes a scratch from scratchFree, or a new one when it is
// empty, and resets it for one architecture and qubit count.
func getScratch(a *arch.Architecture, numQubits int) *transitionScratch {
	sc, ok := scratchFree.Get()
	if !ok {
		return newTransitionScratch(a, numQubits)
	}
	sc.reset(a, numQubits)
	return sc
}

// newTransitionScratch returns a fresh scratch for one architecture and
// qubit count.
func newTransitionScratch(a *arch.Architecture, numQubits int) *transitionScratch {
	sc := new(transitionScratch)
	sc.reset(a, numQubits)
	return sc
}

// reset sizes every index and flag table for one architecture and qubit
// count and re-initialises it, so a scratch another plan used, on another
// architecture, reads exactly as a new one. The other buffers are emptied
// before each use.
func (sc *transitionScratch) reset(a *arch.Architecture, numQubits int) {
	sc.pos = refill(sc.pos, numQubits, Pos{})
	sc.reserved = refill(sc.reserved, a.SiteCount(), false)
	sc.stay = refill(sc.stay, numQubits, false)
	sc.banned = refill(sc.banned, numQubits, false)
	sc.related = refill(sc.related, numQubits, -1)
	sc.gateOf = refill(sc.gateOf, numQubits, -1)
	sc.siteCol = refill(sc.siteCol, a.SiteCount(), -1)
	sc.trapCol = refill(sc.trapCol, a.TrapCount(), -1)
	sc.slotTaken = refill(sc.slotTaken, a.MaxSiteSlots(), false)
	sc.moveAt = refill(sc.moveAt, a.SiteCount()*a.MaxSiteSlots(), -1)
}

// refill returns s resized to n elements, each v, reusing s's array when it
// is large enough.
func refill[T any](s []T, n int, v T) []T {
	if cap(s) < n {
		s = make([]T, n)
	} else {
		s = s[:n]
	}
	for i := range s {
		s[i] = v
	}
	return s
}

// appendCandidateSites appends the Ω_cand site set for a gate (paper §V-B2)
// to dst: the δ-expansion box around the gate's nearest site in each
// entanglement zone, minus the excluded sites (indexed by site ordinal).
// Sites with fewer trap slots than the gate has qubits are never candidates
// (multi-trap sites, §III).
func appendCandidateSites(a *arch.Architecture, dst []arch.SiteRef, pts []geom.Point, delta int, excluded []bool) []arch.SiteRef {
	mid := centroid(pts)
	near := nearSiteForQubits(a, pts)
	for zi, z := range a.Entanglement {
		if z.SiteSlots() < len(pts) {
			continue
		}
		nr, nc := z.NearestSite(mid)
		// Center the box on the zone-shared middle site when the qubits'
		// nearest sites resolve into this zone; otherwise on the nearest
		// site to the centroid.
		if near.Zone == zi {
			nr, nc = near.Row, near.Col
		}
		rows, cols := z.SiteRows(), z.SiteCols()
		for r := max(0, nr-delta); r <= min(rows-1, nr+delta); r++ {
			for c := max(0, nc-delta); c <= min(cols-1, nc+delta); c++ {
				s := arch.SiteRef{Zone: zi, Row: r, Col: c}
				if excluded == nil || !excluded[a.SiteOrdinal(s)] {
					dst = append(dst, s)
				}
			}
		}
	}
	return dst
}

// gatePlacement assigns Rydberg sites to the non-reused gates of a stage by
// minimum-weight full matching (paper §V-B2, Jonker–Volgenant). pos gives
// current qubit positions; sc.reserved marks sites excluded for every gate
// (reused gates), except that a gate may target a site currently held by
// one of its own qubits. lookahead[gi] ≥ 0 optionally names a qubit whose
// distance to the chosen site is added (the §V-B2 reuse lookahead term).
// The returned assignment is aligned with gateIdx and owned by the scratch.
func gatePlacement(
	a *arch.Architecture,
	gates []circuit.Gate,
	gateIdx []int, // indices (into gates) that still need sites
	pos []Pos,
	lookahead []int32, // by gate index; nil or -1 = no lookahead
	held map[arch.SiteRef][]int, // site → zone-resident qubits still there
	delta int,
	sc *transitionScratch,
	cov *cover.Set,
) ([]arch.SiteRef, float64, error) {
	if len(gateIdx) == 0 {
		return nil, 0, nil
	}
	maxDelta := delta
	for _, z := range a.Entanglement {
		maxDelta = max(maxDelta, z.SiteRows(), z.SiteCols())
	}
	for d := delta; d <= maxDelta; d *= 2 {
		if d > delta {
			cov.Hit("place:gateplace:expand")
		}
		assign, cost, err := tryGatePlacement(a, gates, gateIdx, pos, lookahead, held, d, sc)
		if err == nil {
			return assign, cost, nil
		}
		if err != matching.ErrNoFullMatching {
			return nil, 0, err
		}
	}
	return nil, 0, fmt.Errorf("place: cannot place %d gates even over the whole entanglement zone(s)", len(gateIdx))
}

func tryGatePlacement(
	a *arch.Architecture,
	gates []circuit.Gate,
	gateIdx []int,
	pos []Pos,
	lookahead []int32,
	held map[arch.SiteRef][]int,
	delta int,
	sc *transitionScratch,
) ([]arch.SiteRef, float64, error) {
	// Per-gate candidate lists (CSR over sc.cands) and their union, indexed
	// densely through sc.siteCol in first-appearance order — the same column
	// order the dense matrix construction used.
	sc.sites = sc.sites[:0]
	sc.cands = sc.cands[:0]
	sc.candRow = sc.candRow[:0]
	defer func() {
		for _, s := range sc.sites {
			sc.siteCol[a.SiteOrdinal(s)] = -1
		}
	}()
	gatePts := func(g circuit.Gate) []geom.Point {
		sc.ptsBuf = sc.ptsBuf[:0]
		for _, q := range g.Qubits {
			sc.ptsBuf = append(sc.ptsBuf, pos[q].Point(a))
		}
		return sc.ptsBuf
	}
	for _, gi := range gateIdx {
		sc.candRow = append(sc.candRow, len(sc.cands))
		sc.cands = appendCandidateSites(a, sc.cands, gatePts(gates[gi]), delta, sc.reserved)
		for _, s := range sc.cands[sc.candRow[len(sc.candRow)-1]:] {
			if ord := a.SiteOrdinal(s); sc.siteCol[ord] < 0 {
				sc.siteCol[ord] = int32(len(sc.sites))
				sc.sites = append(sc.sites, s)
			}
		}
	}
	sc.candRow = append(sc.candRow, len(sc.cands))
	if len(sc.sites) < len(gateIdx) {
		return nil, 0, matching.ErrNoFullMatching
	}

	sc.rowStart = sc.rowStart[:0]
	sc.cols = sc.cols[:0]
	sc.costs = sc.costs[:0]
	for k, gi := range gateIdx {
		sc.rowStart = append(sc.rowStart, len(sc.cols))
		g := gates[gi]
		pts := gatePts(g)
		var lookPt geom.Point
		partner := -1
		if lookahead != nil && lookahead[gi] >= 0 {
			partner = int(lookahead[gi])
			lookPt = pos[partner].Point(a)
		}
		for _, s := range sc.cands[sc.candRow[k]:sc.candRow[k+1]] {
			// A site held by a foreign zone-resident qubit is unavailable;
			// held by this gate's own qubits is fine (the qubit stays put).
			if slices.ContainsFunc(held[s], func(hq int) bool { return !slices.Contains(g.Qubits, hq) }) {
				continue
			}
			sp := a.SitePos(s)
			w := gateCost(a, sp, pts...)
			if partner >= 0 {
				w += moveCost(a, lookPt, sp)
			}
			sc.cols = append(sc.cols, int(sc.siteCol[a.SiteOrdinal(s)]))
			sc.costs = append(sc.costs, w)
		}
	}
	sc.rowStart = append(sc.rowStart, len(sc.cols))

	rowTo, total, err := sc.solver.SolveSparse(len(gateIdx), len(sc.sites), sc.rowStart, sc.cols, sc.costs)
	if err != nil {
		return nil, 0, err
	}
	sc.assignSites = sc.assignSites[:0]
	for k := range gateIdx {
		sc.assignSites = append(sc.assignSites, sc.sites[rowTo[k]])
	}
	return sc.assignSites, total, nil
}

// returnPlacement assigns storage traps to the qubits leaving the
// entanglement zone (paper §V-B3): candidates are the empty traps inside the
// bounding box spanned by (1) the qubit's original storage trap, (2) the
// k-neighborhood of the storage trap nearest its current site, and (3) the
// trap nearest its related qubit; edge weights follow Eq. 3. The returned
// assignment is aligned with qubits and owned by the scratch.
func returnPlacement(
	a *arch.Architecture,
	qubits []int,
	pos []Pos,
	home []arch.TrapRef,
	related []int32, // by qubit → partner in the next Rydberg stage, -1 = none
	occ []int32, // by trap ordinal → qubit, -1 = free
	k int,
	alpha float64,
	sc *transitionScratch,
	cov *cover.Set,
) ([]arch.TrapRef, float64, error) {
	if len(qubits) == 0 {
		return nil, 0, nil
	}
	for attempt, kk := 0, k; attempt < 4; attempt, kk = attempt+1, kk*2+1 {
		if attempt > 0 {
			cov.Hit("place:returns:expand")
		}
		if attempt == 3 {
			cov.Hit("place:returns:all-traps")
		}
		assign, cost, err := tryReturnPlacement(a, qubits, pos, home, related, occ, kk, alpha, attempt == 3, sc)
		if err == nil {
			return assign, cost, nil
		}
		if err != matching.ErrNoFullMatching {
			return nil, 0, err
		}
	}
	return nil, 0, fmt.Errorf("place: cannot return %d qubits to storage", len(qubits))
}

func tryReturnPlacement(
	a *arch.Architecture,
	qubits []int,
	pos []Pos,
	home []arch.TrapRef,
	related []int32,
	occ []int32,
	k int,
	alpha float64,
	allTraps bool,
	sc *transitionScratch,
) ([]arch.TrapRef, float64, error) {
	sc.traps = sc.traps[:0]
	sc.tcands = sc.tcands[:0]
	sc.tcandRow = sc.tcandRow[:0]
	defer func() {
		for _, ord := range sc.traps {
			sc.trapCol[ord] = -1
		}
	}()
	for _, q := range qubits {
		sc.tcandRow = append(sc.tcandRow, len(sc.tcands))
		if allTraps {
			for ord, taken := range occ {
				if taken < 0 {
					sc.tcands = append(sc.tcands, int32(ord))
				}
			}
		} else {
			sc.tcands = appendCandidateTraps(a, sc.tcands, q, pos, home, related, occ, k)
		}
		for _, ord := range sc.tcands[sc.tcandRow[len(sc.tcandRow)-1]:] {
			if sc.trapCol[ord] < 0 {
				sc.trapCol[ord] = int32(len(sc.traps))
				sc.traps = append(sc.traps, ord)
			}
		}
	}
	sc.tcandRow = append(sc.tcandRow, len(sc.tcands))
	if len(sc.traps) < len(qubits) {
		return nil, 0, matching.ErrNoFullMatching
	}

	sc.rowStart = sc.rowStart[:0]
	sc.cols = sc.cols[:0]
	sc.costs = sc.costs[:0]
	for i, q := range qubits {
		sc.rowStart = append(sc.rowStart, len(sc.cols))
		cur := pos[q].Point(a)
		// A non-positive α disables the lookahead term (used by the
		// parameter-sweep ablation).
		partner := -1
		var partnerPt geom.Point
		if related != nil && related[q] >= 0 && alpha > 0 {
			partner = int(related[q])
			partnerPt = pos[partner].Point(a)
		}
		for _, ord := range sc.tcands[sc.tcandRow[i]:sc.tcandRow[i+1]] {
			tp := a.TrapPosAt(int(ord))
			w := moveCost(a, cur, tp)
			if partner >= 0 {
				w += alpha * moveCost(a, partnerPt, tp)
			}
			sc.cols = append(sc.cols, int(sc.trapCol[ord]))
			sc.costs = append(sc.costs, w)
		}
	}
	sc.rowStart = append(sc.rowStart, len(sc.cols))

	rowTo, total, err := sc.solver.SolveSparse(len(qubits), len(sc.traps), sc.rowStart, sc.cols, sc.costs)
	if err != nil {
		return nil, 0, err
	}
	sc.assignTraps = sc.assignTraps[:0]
	for i := range qubits {
		sc.assignTraps = append(sc.assignTraps, a.TrapAt(int(sc.traps[rowTo[i]])))
	}
	return sc.assignTraps, total, nil
}

// appendCandidateTraps appends S_cand^q for one qubit to dst, as trap
// ordinals: empty traps inside the bounding box of the three anchor trap
// groups (paper Fig. 6c).
func appendCandidateTraps(
	a *arch.Architecture,
	dst []int32,
	q int,
	pos []Pos,
	home []arch.TrapRef,
	related []int32,
	occ []int32,
	k int,
) []int32 {
	cur := pos[q].Point(a)
	// Only the anchors' bounding box matters, so each anchor extends it
	// as it is found.
	box := geom.NewBBox()
	anchor := func(t arch.TrapRef) { box.Extend(a.TrapPos(t)) }

	// (1) original storage trap
	anchor(home[q])
	// (2) nearest storage trap to the current site plus k-neighbors along
	// its row and column
	nearest := a.NearestStorageTrap(cur)
	anchor(nearest)
	z := a.Storage[nearest.Zone].SLMs[nearest.SLM]
	for d := 1; d <= k; d++ {
		for _, t := range [4]arch.TrapRef{
			{Zone: nearest.Zone, SLM: nearest.SLM, Row: nearest.Row, Col: nearest.Col - d},
			{Zone: nearest.Zone, SLM: nearest.SLM, Row: nearest.Row, Col: nearest.Col + d},
			{Zone: nearest.Zone, SLM: nearest.SLM, Row: nearest.Row - d, Col: nearest.Col},
			{Zone: nearest.Zone, SLM: nearest.SLM, Row: nearest.Row + d, Col: nearest.Col},
		} {
			if z.InRange(t.Row, t.Col) {
				anchor(t)
			}
		}
	}
	// (3) nearest trap to the related qubit
	if related != nil && related[q] >= 0 {
		anchor(a.NearestStorageTrap(pos[related[q]].Point(a)))
	}

	return appendFreeTrapsIn(a, dst, box, occ)
}

// appendFreeTrapsIn appends the ordinals of the empty storage traps inside
// box, array by array, rows ascending and then columns. TrapPos takes x
// from the column alone and y from the row alone, so an array's in-box
// traps form a rectangle: the scan trims the end rows and columns of the
// nearest-trap range with the inclusive comparisons of a per-trap test,
// then walks each row's occupancy from one ordinal.
func appendFreeTrapsIn(a *arch.Architecture, dst []int32, box *geom.BBox, occ []int32) []int32 {
	for zi, zz := range a.Storage {
		for si, s := range zz.SLMs {
			rLo, cLo := s.NearestTrap(geom.Point{X: box.MinX, Y: box.MinY})
			rHi, cHi := s.NearestTrap(geom.Point{X: box.MaxX, Y: box.MaxY})
			rLo, rHi = min(rLo, rHi), max(rLo, rHi)
			cLo, cHi = min(cLo, cHi), max(cLo, cHi)
			for rLo <= rHi && !within(s.TrapPos(rLo, 0).Y, box.MinY, box.MaxY) {
				rLo++
			}
			for rHi >= rLo && !within(s.TrapPos(rHi, 0).Y, box.MinY, box.MaxY) {
				rHi--
			}
			for cLo <= cHi && !within(s.TrapPos(0, cLo).X, box.MinX, box.MaxX) {
				cLo++
			}
			for cHi >= cLo && !within(s.TrapPos(0, cHi).X, box.MinX, box.MaxX) {
				cHi--
			}
			if cLo > cHi {
				continue
			}
			for r := rLo; r <= rHi; r++ {
				base := a.TrapOrdinal(arch.TrapRef{Zone: zi, SLM: si, Row: r, Col: cLo})
				for i, q := range occ[base : base+cHi-cLo+1] {
					if q < 0 {
						dst = append(dst, int32(base+i))
					}
				}
			}
		}
	}
	return dst
}

// within reports lo ≤ v ≤ hi: one axis of a box's inclusive bounds.
func within(v, lo, hi float64) bool { return v >= lo && v <= hi }
