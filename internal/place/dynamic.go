package place

import (
	"fmt"
	"slices"

	"zac/internal/arch"
	"zac/internal/circuit"
	"zac/internal/cover"
	"zac/internal/geom"
	"zac/internal/matching"
)

// reuseMatch computes the gate-to-gate reuse matching between two Rydberg
// stages (paper §V-B1): vertices are gates, an edge joins g (previous stage)
// and g′ (next stage) when they share a qubit, and a Hopcroft–Karp maximum
// matching resolves conflicts such as both qubits of one site being
// reusable. It returns, for each gate of next, the index of the previous
// gate whose site it inherits (or -1).
func reuseMatch(prev, next []circuit.Gate) []int {
	adj := make([][]int, len(prev))
	for i, g := range prev {
		for j, h := range next {
			if sharesQubit(g, h) {
				adj[i] = append(adj[i], j)
			}
		}
	}
	matchL, _ := matching.HopcroftKarp(adj, len(next))
	out := slices.Repeat([]int{-1}, len(next))
	for i, j := range matchL {
		if j >= 0 {
			out[j] = i
		}
	}
	return out
}

func sharesQubit(g, h circuit.Gate) bool {
	for _, a := range g.Qubits {
		for _, b := range h.Qubits {
			if a == b {
				return true
			}
		}
	}
	return false
}

// transitionScratch holds every reusable buffer of the stage-transition
// solver: the JV solver with its scratch, dense site/trap column indexes
// (reset through touched lists), the qubit-sized flag arrays that replaced
// the per-solve reserved/stay/banned maps, and the CSR arc arrays fed to
// the sparse JV solves. BuildPlan solves every candidate on one scratch; a
// scratch must not be shared between concurrent solves.
type transitionScratch struct {
	solver matching.Solver

	posView []Pos

	reserved []bool  // by site ordinal; reset via the sites union list
	stay     []bool  // by qubit; cleared per solve
	banned   []bool  // by qubit; cleared per solveTransition
	related  []int32 // by qubit → next-stage partner, -1 = none

	lookahead []int32 // by gate index in cur → partner qubit, -1 = none
	reuseOf   []int   // by gate index in cur
	gateIdx   []int

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

// newTransitionScratch sizes a scratch for one architecture and qubit count.
func newTransitionScratch(a *arch.Architecture, numQubits int) *transitionScratch {
	return &transitionScratch{
		reserved:  make([]bool, a.SiteCount()),
		stay:      make([]bool, numQubits),
		banned:    make([]bool, numQubits),
		related:   make([]int32, numQubits),
		siteCol:   slices.Repeat([]int32{-1}, a.SiteCount()),
		trapCol:   slices.Repeat([]int32{-1}, a.TrapCount()),
		slotTaken: make([]bool, a.MaxSiteSlots()),
		moveAt:    slices.Repeat([]int32{-1}, a.SiteCount()*a.MaxSiteSlots()),
	}
}

// newOccupancy returns an empty dense storage-occupancy table (trap
// ordinal → qubit, -1 = free).
func newOccupancy(a *arch.Architecture) []int32 {
	return slices.Repeat([]int32{-1}, a.TrapCount())
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

	// Collect the empty traps inside the bounding box. Restrict the scan to
	// the storage SLM arrays that intersect the box.
	for zi, zz := range a.Storage {
		for si, s := range zz.SLMs {
			rLo, cLo := s.NearestTrap(geom.Point{X: box.MinX, Y: box.MinY})
			rHi, cHi := s.NearestTrap(geom.Point{X: box.MaxX, Y: box.MaxY})
			for r := min(rLo, rHi); r <= max(rLo, rHi); r++ {
				for c := min(cLo, cHi); c <= max(cLo, cHi); c++ {
					if !box.Contains(s.TrapPos(r, c)) {
						continue
					}
					if ord := a.TrapOrdinal(arch.TrapRef{Zone: zi, SLM: si, Row: r, Col: c}); occ[ord] < 0 {
						dst = append(dst, int32(ord))
					}
				}
			}
		}
	}
	return dst
}
