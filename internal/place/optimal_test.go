package place

import (
	"math"
	"math/rand"
	"slices"
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
	occupied := slices.Repeat([]int32{-1}, a.TrapCount())
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

// boxScanFreeTraps is the reference storage scan behind the candidate
// traps: every trap of each array's nearest-trap range pays one
// containment test.
func boxScanFreeTraps(a *arch.Architecture, dst []int32, box *geom.BBox, occ []int32) []int32 {
	for zi, zz := range a.Storage {
		for si, s := range zz.SLMs {
			rLo, cLo := s.NearestTrap(geom.Point{X: box.MinX, Y: box.MinY})
			rHi, cHi := s.NearestTrap(geom.Point{X: box.MaxX, Y: box.MaxY})
			for r := min(rLo, rHi); r <= max(rLo, rHi); r++ {
				for c := min(cLo, cHi); c <= max(cLo, cHi); c++ {
					if p := s.TrapPos(r, c); !(p.X >= box.MinX && p.X <= box.MaxX && p.Y >= box.MinY && p.Y <= box.MaxY) {
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

// boxScanCandidateTraps is the reference S_cand^q: the anchors' bounding
// box (paper Fig. 6c) scanned trap by trap.
func boxScanCandidateTraps(a *arch.Architecture, q int, pos []Pos, home []arch.TrapRef, related []int32, occ []int32, k int) []int32 {
	box := geom.NewBBox()
	box.Extend(a.TrapPos(home[q]))
	nearest := a.NearestStorageTrap(pos[q].Point(a))
	box.Extend(a.TrapPos(nearest))
	z := a.Storage[nearest.Zone].SLMs[nearest.SLM]
	for d := 1; d <= k; d++ {
		for _, rc := range [4][2]int{{0, -d}, {0, d}, {-d, 0}, {d, 0}} {
			if r, c := nearest.Row+rc[0], nearest.Col+rc[1]; z.InRange(r, c) {
				box.Extend(z.TrapPos(r, c))
			}
		}
	}
	if related != nil && related[q] >= 0 {
		box.Extend(a.TrapPos(a.NearestStorageTrap(pos[related[q]].Point(a))))
	}
	return boxScanFreeTraps(a, nil, box, occ)
}

var scanArchs = []struct {
	name string
	a    *arch.Architecture
}{
	{"Reference", arch.Reference()},
	{"ReferenceTriple", arch.ReferenceTriple()},
	{"Arch1Small", arch.Arch1Small()},
	{"Arch2TwoZones", arch.Arch2TwoZones()},
	{"Logical832", arch.Logical832()},
}

func randomTrap(r *rand.Rand, a *arch.Architecture) arch.TrapRef {
	zi := r.Intn(len(a.Storage))
	si := r.Intn(len(a.Storage[zi].SLMs))
	s := a.Storage[zi].SLMs[si]
	return arch.TrapRef{Zone: zi, SLM: si, Row: r.Intn(s.Rows), Col: r.Intn(s.Cols)}
}

// randomOccupancy marks about half of a's storage traps occupied.
func randomOccupancy(r *rand.Rand, a *arch.Architecture) []int32 {
	occ := slices.Repeat([]int32{-1}, a.TrapCount())
	for i := range occ {
		if r.Intn(2) == 0 {
			occ[i] = int32(r.Intn(64))
		}
	}
	return occ
}

// TestFreeTrapsInMatchesBoxScan checks the rectangle scan against the
// per-trap scan on boxes whose ends fall between traps (so trimming drops
// end rows or columns), reach past the arrays, or sit exactly on traps.
func TestFreeTrapsInMatchesBoxScan(t *testing.T) {
	r := rand.New(rand.NewSource(27))
	for _, tc := range scanArchs {
		a := tc.a
		span := geom.NewBBox()
		for ord := range a.TrapCount() {
			span.Extend(a.TrapPosAt(ord))
		}
		mx, my := (span.MaxX-span.MinX)/8+1, (span.MaxY-span.MinY)/8+1
		between := func(lo, hi, m float64) float64 { return lo - m + r.Float64()*(hi-lo+2*m) }
		for i := range 300 {
			occ := randomOccupancy(r, a)
			box := geom.NewBBox()
			switch i % 3 {
			case 0: // anywhere, ends between traps
				box.Extend(geom.Point{X: between(span.MinX, span.MaxX, mx), Y: between(span.MinY, span.MaxY, my)})
				box.Extend(geom.Point{X: between(span.MinX, span.MaxX, mx), Y: between(span.MinY, span.MaxY, my)})
			case 1: // around one trap, possibly holding none
				p := a.TrapPos(randomTrap(r, a))
				box.Extend(geom.Point{X: p.X - r.Float64()*mx/4, Y: p.Y - r.Float64()*my/4})
				box.Extend(geom.Point{X: p.X + r.Float64()*mx/4, Y: p.Y + r.Float64()*my/4})
			default: // corners exactly on traps
				box.Extend(a.TrapPos(randomTrap(r, a)))
				box.Extend(a.TrapPos(randomTrap(r, a)))
			}
			want := boxScanFreeTraps(a, nil, box, occ)
			if got := appendFreeTrapsIn(a, nil, box, occ); !slices.Equal(got, want) {
				t.Fatalf("%s box %d %+v: rectangle scan = %v, per-trap scan = %v", tc.name, i, *box, got, want)
			}
		}
	}
}

// TestCandidateTrapsMatchBoxScan checks appendCandidateTraps against the
// per-trap reference over every architecture, with random occupancy, qubits
// both in storage and in the entanglement zone, and several k.
func TestCandidateTrapsMatchBoxScan(t *testing.T) {
	r := rand.New(rand.NewSource(27))
	const n = 16
	for _, tc := range scanArchs {
		a := tc.a
		for round := range 8 {
			occ := randomOccupancy(r, a)
			pos := make([]Pos, n)
			home := make([]arch.TrapRef, n)
			related := make([]int32, n)
			for q := range n {
				home[q] = randomTrap(r, a)
				if q%2 == 0 {
					pos[q] = StoragePos(randomTrap(r, a))
				} else {
					zi := r.Intn(len(a.Entanglement))
					z := a.Entanglement[zi]
					site := arch.SiteRef{Zone: zi, Row: r.Intn(z.SiteRows()), Col: r.Intn(z.SiteCols())}
					pos[q] = SitePos(site, r.Intn(len(z.SLMs)))
				}
				related[q] = int32(r.Intn(n+1) - 1)
			}
			if round%4 == 0 {
				related = nil
			}
			for _, k := range []int{0, 1, 3, 7} {
				for q := range n {
					want := boxScanCandidateTraps(a, q, pos, home, related, occ, k)
					if got := appendCandidateTraps(a, nil, q, pos, home, related, occ, k); !slices.Equal(got, want) {
						t.Fatalf("%s round %d k=%d q=%d: candidates = %v, per-trap scan = %v", tc.name, round, k, q, got, want)
					}
				}
			}
		}
	}
}
