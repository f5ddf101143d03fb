package place

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"zac/internal/arch"
	"zac/internal/circuit"
	"zac/internal/geom"
	"zac/internal/matching"
	"zac/internal/resynth"
)

func ghz(n int) *circuit.Circuit {
	c := circuit.New("ghz", n)
	c.Append(circuit.H, []int{0})
	for i := 0; i < n-1; i++ {
		c.Append(circuit.CX, []int{i, i + 1})
	}
	return c
}

func parallelPairs(n int) *circuit.Circuit {
	// Two stages of n/2 parallel CZs each; stage 2 shifted by one — rich in
	// reuse opportunities.
	c := circuit.New("pairs", n)
	for i := 0; i+1 < n; i += 2 {
		c.Append(circuit.CZ, []int{i, i + 1})
	}
	for i := 1; i+1 < n; i += 2 {
		c.Append(circuit.CZ, []int{i, i + 1})
	}
	return c
}

func mustStage(t *testing.T, c *circuit.Circuit) *circuit.Staged {
	t.Helper()
	s, err := resynth.Preprocess(c)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestTrivialInitial(t *testing.T) {
	a := arch.Reference()
	traps, err := TrivialInitial(a, 14)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[arch.TrapRef]bool{}
	for q, tr := range traps {
		if seen[tr] {
			t.Fatalf("trap %+v assigned twice", tr)
		}
		seen[tr] = true
		// Nearest row to the entanglement zone is row 99 (y = 297).
		if tr.Row != 99 {
			t.Errorf("qubit %d at row %d, want 99", q, tr.Row)
		}
		if tr.Col != q {
			t.Errorf("qubit %d at col %d", q, tr.Col)
		}
	}
}

func TestTrivialInitialOverflow(t *testing.T) {
	a := arch.Arch1Small() // 120 traps
	if _, err := TrivialInitial(a, 121); err == nil {
		t.Fatal("expected error for too many qubits")
	}
	if traps, err := TrivialInitial(a, 120); err != nil || len(traps) != 120 {
		t.Fatalf("exact fit failed: %v", err)
	}
}

func TestSAInitialImprovesOrEqual(t *testing.T) {
	a := arch.Reference()
	staged := mustStage(t, ghz(12))
	gates := collectWeightedGates(staged)

	costOf := func(traps []arch.TrapRef) float64 {
		total := 0.0
		pts := make([]geom.Point, len(traps))
		for q, tr := range traps {
			pts[q] = a.TrapPos(tr)
		}
		for _, g := range gates {
			site := a.SitePos(nearSiteForGate(a, pts[g.q1], pts[g.q2]))
			total += g.weight * gateCost(a, site, pts[g.q1], pts[g.q2])
		}
		return total
	}

	trivial, err := TrivialInitial(a, staged.NumQubits)
	if err != nil {
		t.Fatal(err)
	}
	sa, _, err := SAInitialWithCost(a, staged, 1000, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	if costOf(sa) > costOf(trivial)+1e-9 {
		t.Errorf("SA cost %v worse than trivial %v", costOf(sa), costOf(trivial))
	}
	// Must remain injective.
	seen := map[arch.TrapRef]bool{}
	for _, tr := range sa {
		if seen[tr] {
			t.Fatal("SA produced colliding traps")
		}
		seen[tr] = true
	}
}

func TestSAInitialDeterministic(t *testing.T) {
	a := arch.Reference()
	staged := mustStage(t, ghz(8))
	r1, _, _ := SAInitialWithCost(a, staged, 500, rand.New(rand.NewSource(7)))
	r2, _, _ := SAInitialWithCost(a, staged, 500, rand.New(rand.NewSource(7)))
	for q := range r1 {
		if r1[q] != r2[q] {
			t.Fatal("SA not deterministic under a fixed seed")
		}
	}
}

func TestGateCostEquation1(t *testing.T) {
	a := arch.Reference()
	// Paper's worked example (Fig. 5): q0 at (13,9), q1 at (1,9), site ω00 at
	// (0,19): same row → max(√16.40, √10.05) = 4.05.
	site := geom.Point{X: 0, Y: 19}
	c := gateCost(a, site, geom.Point{X: 13, Y: 9}, geom.Point{X: 1, Y: 9})
	if math.Abs(c-4.05) > 0.01 {
		t.Errorf("same-row gate cost = %v, want ≈4.05", c)
	}
	// Different rows → sum.
	c2 := gateCost(a, site, geom.Point{X: 13, Y: 9}, geom.Point{X: 1, Y: 6})
	want := math.Sqrt(geom.Point{X: 13, Y: 9}.Dist(site)) + math.Sqrt(geom.Point{X: 1, Y: 6}.Dist(site))
	if math.Abs(c2-want) > 1e-9 {
		t.Errorf("diff-row gate cost = %v, want %v", c2, want)
	}
}

func TestWeightDecay(t *testing.T) {
	staged := mustStage(t, ghz(5)) // 4 sequential CZ stages
	gates := collectWeightedGates(staged)
	if len(gates) != 4 {
		t.Fatalf("gates = %d", len(gates))
	}
	wants := []float64{1.0, 0.9, 0.8, 0.7}
	for i, g := range gates {
		if math.Abs(g.weight-wants[i]) > 1e-12 {
			t.Errorf("gate %d weight %v, want %v", i, g.weight, wants[i])
		}
	}
}

func TestWeightFloor(t *testing.T) {
	staged := mustStage(t, ghz(15)) // 14 stages: weights floor at 0.1
	gates := collectWeightedGates(staged)
	last := gates[len(gates)-1]
	if last.weight != 0.1 {
		t.Errorf("deep-stage weight = %v, want floor 0.1", last.weight)
	}
}

func TestReuseMatch(t *testing.T) {
	// Paper Fig. 6a: l2 = {g0(0,1), g1(3,4)}, l4 = {g2(1,2), g3(3,5), g4(0,4)}.
	prev := []circuit.Gate{
		circuit.NewGate(circuit.CZ, []int{0, 1}),
		circuit.NewGate(circuit.CZ, []int{3, 4}),
	}
	next := []circuit.Gate{
		circuit.NewGate(circuit.CZ, []int{1, 2}),
		circuit.NewGate(circuit.CZ, []int{3, 5}),
		circuit.NewGate(circuit.CZ, []int{0, 4}),
	}
	m := newTransitionScratch(arch.Reference(), 6).reuseMatch(prev, next)
	// Maximum matching has size 2 (only two previous gates).
	matched := 0
	usedPrev := map[int]bool{}
	for j, pi := range m {
		if pi < 0 {
			continue
		}
		matched++
		if usedPrev[pi] {
			t.Fatal("previous gate reused twice")
		}
		usedPrev[pi] = true
		if !sharesQubit(prev[pi], next[j]) {
			t.Fatalf("matched gates %d→%d share no qubit", pi, j)
		}
	}
	if matched != 2 {
		t.Errorf("matched = %d, want 2", matched)
	}
}

func TestReuseMatchEmpty(t *testing.T) {
	sc := newTransitionScratch(arch.Reference(), 2)
	if m := sc.reuseMatch(nil, []circuit.Gate{circuit.NewGate(circuit.CZ, []int{0, 1})}); m[0] != -1 {
		t.Error("no previous gates must mean no reuse")
	}
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

// pairScanAdjacency is the reference reuse graph: it tests every
// (prev, next) gate pair.
func pairScanAdjacency(prev, next []circuit.Gate) [][]int {
	adj := make([][]int, len(prev))
	for i, g := range prev {
		for j, h := range next {
			if sharesQubit(g, h) {
				adj[i] = append(adj[i], j)
			}
		}
	}
	return adj
}

// pairScanReuseMatch is the reference reuse matching over
// pairScanAdjacency.
func pairScanReuseMatch(prev, next []circuit.Gate) []int {
	matchL, _ := matching.HopcroftKarp(pairScanAdjacency(prev, next), len(next))
	out := slices.Repeat([]int{-1}, len(next))
	for i, j := range matchL {
		if j >= 0 {
			out[j] = i
		}
	}
	return out
}

// randomStage draws a valid Rydberg stage over n qubits: disjoint CZ and
// CCZ gates over a random subset of them.
func randomStage(r *rand.Rand, n int) []circuit.Gate {
	perm := r.Perm(n)
	var gates []circuit.Gate
	for len(perm) >= 2 {
		k := circuit.CZ
		if len(perm) >= 3 && r.Intn(3) == 0 {
			k = circuit.CCZ
		}
		qs := perm[:k.NumQubits()]
		perm = perm[k.NumQubits():]
		if r.Intn(4) > 0 {
			gates = append(gates, circuit.NewGate(k, qs))
		}
	}
	return gates
}

// TestReuseMatchMatchesPairScan checks the by-qubit reuse matching against
// the pair scan: the same adjacency rows, and the same slice, not only a
// matching of the same size, because the site each gate inherits depends
// on which maximum matching is found. A scratch is reused across draws, as
// BuildPlan reuses it across transitions.
func TestReuseMatchMatchesPairScan(t *testing.T) {
	r := rand.New(rand.NewSource(27))
	cz := func(q ...int) circuit.Gate { return circuit.NewGate(circuit.CZ, q) }
	ccz := func(q ...int) circuit.Gate { return circuit.NewGate(circuit.CCZ, q) }
	type pair struct{ prev, next []circuit.Gate }
	cases := []pair{
		{nil, nil},
		{nil, []circuit.Gate{cz(0, 1)}},
		{[]circuit.Gate{cz(0, 1)}, nil},
		// every qubit of a previous gate lands in one next gate
		{[]circuit.Gate{cz(0, 1), cz(2, 3)}, []circuit.Gate{ccz(3, 1, 0), cz(2, 4)}},
		{[]circuit.Gate{ccz(0, 1, 2)}, []circuit.Gate{ccz(2, 0, 1)}},
		// one previous gate shares a qubit with three next gates
		{[]circuit.Gate{ccz(0, 1, 2), cz(3, 4)}, []circuit.Gate{cz(2, 5), cz(1, 3), cz(0, 4)}},
	}
	for _, n := range []int{2, 3, 5, 8, 16, 64, 256} {
		for range 40 {
			cases = append(cases, pair{randomStage(r, n), randomStage(r, n)})
		}
	}
	sc := newTransitionScratch(arch.Reference(), 256)
	for i, c := range cases {
		want := pairScanReuseMatch(c.prev, c.next)
		if got := sc.reuseMatch(c.prev, c.next); !slices.Equal(got, want) {
			t.Fatalf("case %d (%d→%d gates): reuseMatch = %v, pair scan = %v", i, len(c.prev), len(c.next), got, want)
		}
		if want := pairScanAdjacency(c.prev, c.next); !slices.EqualFunc(sc.adj, want, slices.Equal) {
			t.Fatalf("case %d: adjacency = %v, pair scan = %v", i, sc.adj, want)
		}
	}
}

func TestBuildPlanGHZValid(t *testing.T) {
	a := arch.Reference()
	staged := mustStage(t, ghz(14))
	for _, setting := range []Options{
		{UseSA: false, Dynamic: false, Reuse: false},
		{UseSA: false, Dynamic: true, Reuse: false},
		{UseSA: false, Dynamic: true, Reuse: true},
		Default(),
	} {
		plan, err := BuildPlan(context.Background(), a, staged, setting)
		if err != nil {
			t.Fatalf("%+v: %v", setting, err)
		}
		if err := plan.Validate(); err != nil {
			t.Fatalf("%+v: %v", setting, err)
		}
		if len(plan.Steps) != staged.NumRydbergStages() {
			t.Fatalf("steps %d != stages %d", len(plan.Steps), staged.NumRydbergStages())
		}
	}
}

func TestBuildPlanReuseReducesMoves(t *testing.T) {
	a := arch.Reference()
	staged := mustStage(t, ghz(20))
	noReuse, err := BuildPlan(context.Background(), a, staged, Options{Dynamic: true, Reuse: false})
	if err != nil {
		t.Fatal(err)
	}
	withReuse, err := BuildPlan(context.Background(), a, staged, Options{Dynamic: true, Reuse: true})
	if err != nil {
		t.Fatal(err)
	}
	if withReuse.TotalReused() == 0 {
		t.Error("GHZ chain should admit reuse (consecutive gates share qubits)")
	}
	if withReuse.TotalMoves() >= noReuse.TotalMoves() {
		t.Errorf("reuse should reduce movements: %d vs %d", withReuse.TotalMoves(), noReuse.TotalMoves())
	}
}

func TestBuildPlanParallelCircuit(t *testing.T) {
	a := arch.Reference()
	staged := mustStage(t, parallelPairs(20))
	plan, err := BuildPlan(context.Background(), a, staged, Default())
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	// First stage holds 10 parallel gates at 10 distinct sites.
	if len(plan.Steps[0].Gates) != 10 {
		t.Fatalf("stage 0 gates = %d", len(plan.Steps[0].Gates))
	}
}

func TestBuildPlanStaticReturnsHome(t *testing.T) {
	a := arch.Reference()
	staged := mustStage(t, ghz(6))
	plan, err := BuildPlan(context.Background(), a, staged, Options{Dynamic: false, Reuse: false})
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	// Every move-out must end at the qubit's initial trap.
	for _, step := range plan.Steps {
		for _, m := range step.MovesOut {
			if m.To.Trap != plan.Initial[m.Qubit] {
				t.Fatalf("static mode returned qubit %d to %+v, home %+v",
					m.Qubit, m.To.Trap, plan.Initial[m.Qubit])
			}
		}
	}
}

func TestBuildPlanMultiZone(t *testing.T) {
	a := arch.Arch2TwoZones()
	staged := mustStage(t, parallelPairs(24))
	plan, err := BuildPlan(context.Background(), a, staged, Default())
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	// With 12 gates per stage and two 3×10 zones, both zones should see use
	// across the plan (not guaranteed per-stage, so check the union).
	zones := map[int]bool{}
	for _, step := range plan.Steps {
		for _, s := range step.Sites {
			zones[s.Zone] = true
		}
	}
	if len(zones) < 2 {
		t.Log("warning: only one entanglement zone used; acceptable but unexpected for wide circuits")
	}
}

func TestBuildPlanSmallArch(t *testing.T) {
	a := arch.Arch1Small()
	staged := mustStage(t, parallelPairs(40))
	plan, err := BuildPlan(context.Background(), a, staged, Default())
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCandidateTrapsIncludeAnchors(t *testing.T) {
	a := arch.Reference()
	// Qubit 0 sits at site (0,0); home trap (99, 5); no related qubit.
	pos := []Pos{SitePos(arch.SiteRef{Zone: 0, Row: 0, Col: 0}, 0)}
	home := []arch.TrapRef{{Zone: 0, SLM: 0, Row: 99, Col: 5}}
	occupied := newOccupancy(a)
	cands := candidateTraps(a, 0, pos, home, nil, occupied, 2)
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	hasHome := false
	for _, c := range cands {
		if c == home[0] {
			hasHome = true
		}
	}
	if !hasHome {
		t.Error("home trap missing from candidates")
	}
}

func TestPosPointAndSameLocation(t *testing.T) {
	a := arch.Reference()
	p1 := StoragePos(arch.TrapRef{Zone: 0, SLM: 0, Row: 3, Col: 4})
	if p1.Point(a).Dist(geom.Point{X: 12, Y: 9}) > 1e-9 {
		t.Errorf("storage pos point = %v", p1.Point(a))
	}
	p2 := SitePos(arch.SiteRef{Zone: 0, Row: 0, Col: 0}, 1)
	if p2.Point(a).Dist(geom.Point{X: 37, Y: 307}) > 1e-9 {
		t.Errorf("site pos point = %v", p2.Point(a))
	}
	if p1.SameLocation(p2) {
		t.Error("different locations reported same")
	}
	if !p1.SameLocation(StoragePos(arch.TrapRef{Zone: 0, SLM: 0, Row: 3, Col: 4})) {
		t.Error("same trap reported different")
	}
	if p2.SameLocation(SitePos(arch.SiteRef{Zone: 0, Row: 0, Col: 0}, 0)) {
		t.Error("different slots reported same")
	}
}
