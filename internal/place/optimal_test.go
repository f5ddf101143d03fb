package place

import (
	"math"
	"testing"

	"zac/internal/arch"
	"zac/internal/circuit"
	"zac/internal/geom"
)

// candidateSites returns the Ω_cand site set for a gate as a fresh slice.
func candidateSites(a *arch.Architecture, pts []geom.Point, delta int, excluded []bool) []arch.SiteRef {
	return appendCandidateSites(a, nil, pts, delta, excluded)
}

// candidateTraps returns S_cand^q for one qubit as a fresh slice of traps.
func candidateTraps(a *arch.Architecture, q int, pos []Pos, home []arch.TrapRef, related []int32, occ []int32, k int) []arch.TrapRef {
	var traps []arch.TrapRef
	for _, ord := range appendCandidateTraps(a, nil, q, pos, home, related, occ, k) {
		traps = append(traps, a.TrapAt(int(ord)))
	}
	return traps
}

// TestGatePlacementMatchesBruteForce validates the Jonker–Volgenant gate
// placement against exhaustive search on tiny instances: for every
// assignment of gates to candidate sites, the JV solution must achieve the
// minimum total Eq. 1 cost.
func TestGatePlacementMatchesBruteForce(t *testing.T) {
	a := arch.Reference()
	// Three gates over six qubits parked in the storage row nearest the
	// entanglement zone, spread out to make costs distinct.
	traps := []arch.TrapRef{
		{Zone: 0, SLM: 0, Row: 99, Col: 0},
		{Zone: 0, SLM: 0, Row: 99, Col: 10},
		{Zone: 0, SLM: 0, Row: 99, Col: 25},
		{Zone: 0, SLM: 0, Row: 99, Col: 40},
		{Zone: 0, SLM: 0, Row: 99, Col: 60},
		{Zone: 0, SLM: 0, Row: 99, Col: 80},
	}
	pos := make([]Pos, 6)
	for q, tr := range traps {
		pos[q] = StoragePos(tr)
	}
	gates := []circuit.Gate{
		circuit.NewGate(circuit.CZ, []int{0, 1}),
		circuit.NewGate(circuit.CZ, []int{2, 3}),
		circuit.NewGate(circuit.CZ, []int{4, 5}),
	}
	gateIdx := []int{0, 1, 2}
	sc := newTransitionScratch(a, 6)
	assign, _, err := gatePlacement(a, gates, gateIdx, pos, nil, nil, 2, sc, nil)
	if err != nil {
		t.Fatal(err)
	}

	jvCost := 0.0
	for k, gi := range gateIdx {
		g := gates[gi]
		jvCost += gateCost(a, a.SitePos(assign[k]),
			pos[g.Qubits[0]].Point(a), pos[g.Qubits[1]].Point(a))
	}

	// Brute force over the union of each gate's candidate sites.
	var cands [][]arch.SiteRef
	for _, gi := range gateIdx {
		g := gates[gi]
		pts := []geom.Point{pos[g.Qubits[0]].Point(a), pos[g.Qubits[1]].Point(a)}
		cands = append(cands, candidateSites(a, pts, 2, nil))
	}
	best := math.Inf(1)
	var rec func(gi int, used map[arch.SiteRef]bool, acc float64)
	rec = func(gi int, used map[arch.SiteRef]bool, acc float64) {
		if acc >= best {
			return
		}
		if gi == len(gateIdx) {
			best = acc
			return
		}
		g := gates[gateIdx[gi]]
		p1, p2 := pos[g.Qubits[0]].Point(a), pos[g.Qubits[1]].Point(a)
		for _, s := range cands[gi] {
			if used[s] {
				continue
			}
			used[s] = true
			rec(gi+1, used, acc+gateCost(a, a.SitePos(s), p1, p2))
			delete(used, s)
		}
	}
	rec(0, map[arch.SiteRef]bool{}, 0)

	if jvCost > best+1e-9 {
		t.Fatalf("JV placement cost %v exceeds brute-force optimum %v", jvCost, best)
	}
}

// TestReturnPlacementMatchesBruteForce does the same for the storage-return
// matching (Eq. 3 costs).
func TestReturnPlacementMatchesBruteForce(t *testing.T) {
	a := arch.Reference()
	// Two qubits at entanglement sites returning to storage.
	pos := make([]Pos, 4)
	pos[0] = SitePos(arch.SiteRef{Zone: 0, Row: 0, Col: 2}, 0)
	pos[1] = SitePos(arch.SiteRef{Zone: 0, Row: 0, Col: 5}, 1)
	// Related qubits parked in storage.
	pos[2] = StoragePos(arch.TrapRef{Zone: 0, SLM: 0, Row: 99, Col: 30})
	pos[3] = StoragePos(arch.TrapRef{Zone: 0, SLM: 0, Row: 99, Col: 70})
	home := []arch.TrapRef{
		{Zone: 0, SLM: 0, Row: 99, Col: 3},
		{Zone: 0, SLM: 0, Row: 99, Col: 60},
		{Zone: 0, SLM: 0, Row: 99, Col: 30},
		{Zone: 0, SLM: 0, Row: 99, Col: 70},
	}
	occupied := newOccupancy(a)
	occupied[a.TrapOrdinal(home[2])] = 2
	occupied[a.TrapOrdinal(home[3])] = 3
	related := []int32{2, 3, -1, -1}
	const alpha = 0.1

	qubits := []int{0, 1}
	sc := newTransitionScratch(a, 4)
	assign, got, err := returnPlacement(a, qubits, pos, home, related, occupied, 2, alpha, sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Recompute cost from the assignment.
	recost := 0.0
	for i, q := range qubits {
		tr := assign[i]
		recost += moveCost(a, pos[q].Point(a), a.TrapPos(tr))
		recost += alpha * moveCost(a, pos[related[q]].Point(a), a.TrapPos(tr))
	}
	if math.Abs(recost-got) > 1e-9 {
		t.Fatalf("reported cost %v != recomputed %v", got, recost)
	}

	// Brute force over each qubit's candidates.
	c0 := candidateTraps(a, 0, pos, home, related, occupied, 2)
	c1 := candidateTraps(a, 1, pos, home, related, occupied, 2)
	best := math.Inf(1)
	for _, t0 := range c0 {
		for _, t1 := range c1 {
			if t0 == t1 {
				continue
			}
			c := moveCost(a, pos[0].Point(a), a.TrapPos(t0)) +
				alpha*moveCost(a, pos[2].Point(a), a.TrapPos(t0)) +
				moveCost(a, pos[1].Point(a), a.TrapPos(t1)) +
				alpha*moveCost(a, pos[3].Point(a), a.TrapPos(t1))
			if c < best {
				best = c
			}
		}
	}
	if got > best+1e-9 {
		t.Fatalf("JV return cost %v exceeds brute-force optimum %v", got, best)
	}
}

// TestPaperExampleGatePlacementCost reproduces the paper's Fig. 6b worked
// cost: the edge weight between g0 and ω0,0 is 4.05 + 3.28, where the
// second term is the lookahead of moving q2 (at s3,1 → x=3?) toward the
// site. We verify the first term exactly and that lookahead adds a positive
// term.
func TestPaperExampleGatePlacementCost(t *testing.T) {
	a := arch.Reference()
	// Recreate Fig. 5's geometry in a local frame: site ω0,0 at (0,19),
	// q0 at (13,9), q1 at (1,9) — same row → max rule → 4.05.
	site := geom.Point{X: 0, Y: 19}
	c := gateCost(a, site, geom.Point{X: 13, Y: 9}, geom.Point{X: 1, Y: 9})
	if math.Abs(c-4.05) > 0.01 {
		t.Fatalf("gate cost = %v, want 4.05", c)
	}
	look := moveCost(a, geom.Point{X: 13, Y: 9}, site)
	if look <= 0 {
		t.Fatal("lookahead term must be positive")
	}
}
