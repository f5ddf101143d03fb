package circuit

import (
	"math"
	"strings"
	"testing"
)

func TestKindArity(t *testing.T) {
	cases := map[Kind]int{
		U3: 1, H: 1, RZ: 1, CZ: 2, CX: 2, SWAP: 2, RZZ: 2,
		CCX: 3, CCZ: 3, CSWAP: 3, Measure: 1, Barrier: 1,
	}
	for k, want := range cases {
		if got := k.NumQubits(); got != want {
			t.Errorf("%s.NumQubits() = %d, want %d", k, got, want)
		}
	}
}

func TestKindParams(t *testing.T) {
	cases := map[Kind]int{
		U3: 3, U2: 2, U1: 1, RX: 1, CP: 1, H: 0, CZ: 0, CCX: 0, RZZ: 1,
	}
	for k, want := range cases {
		if got := k.NumParams(); got != want {
			t.Errorf("%s.NumParams() = %d, want %d", k, got, want)
		}
	}
}

func TestNewGatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on arity mismatch")
		}
	}()
	NewGate(CZ, []int{1})
}

func TestNewGateParamPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on param mismatch")
		}
	}()
	NewGate(RZ, []int{0})
}

func TestValidate(t *testing.T) {
	c := New("ok", 3)
	c.Append(H, []int{0})
	c.Append(CX, []int{0, 1})
	c.Append(RZ, []int{2}, 0.5)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}

	bad := New("bad", 2)
	bad.Gates = append(bad.Gates, Gate{Kind: CZ, Qubits: []int{0, 5}})
	if err := bad.Validate(); err == nil {
		t.Error("expected out-of-range error")
	}

	dup := New("dup", 2)
	dup.Gates = append(dup.Gates, Gate{Kind: CZ, Qubits: []int{1, 1}})
	if err := dup.Validate(); err == nil {
		t.Error("expected duplicate-qubit error")
	}

	zero := New("zero", 0)
	if err := zero.Validate(); err == nil {
		t.Error("expected non-positive qubit count error")
	}
}

func TestCountByArity(t *testing.T) {
	c := New("c", 3)
	c.Append(H, []int{0})
	c.Append(CX, []int{0, 1})
	c.Append(CCX, []int{0, 1, 2})
	c.Append(Measure, []int{0})
	one, multi := countByArity(c)
	if one != 1 || multi != 2 {
		t.Errorf("counts = (%d,%d), want (1,2)", one, multi)
	}
}

func TestCloneIsDeep(t *testing.T) {
	c := New("c", 2)
	c.Append(RZ, []int{0}, 1.0)
	d := c.Clone()
	d.Gates[0].Qubits[0] = 1
	d.Gates[0].Params[0] = 9
	if c.Gates[0].Qubits[0] != 0 || c.Gates[0].Params[0] != 1.0 {
		t.Error("Clone shares backing arrays")
	}
}

func TestTwoQubitEdges(t *testing.T) {
	c := New("c", 4)
	c.Append(CX, []int{0, 1})
	c.Append(CX, []int{1, 0}) // same unordered pair
	c.Append(CZ, []int{2, 3})
	edges := twoQubitEdges(c)
	if len(edges) != 2 {
		t.Fatalf("edges = %v, want 2 distinct", edges)
	}
}

func TestDepth(t *testing.T) {
	c := New("c", 3)
	c.Append(H, []int{0})
	c.Append(H, []int{1}) // parallel with above
	c.Append(CX, []int{0, 1})
	c.Append(H, []int{2}) // parallel with everything
	if got := depth(c); got != 2 {
		t.Errorf("Depth = %d, want 2", got)
	}
}

func TestGateString(t *testing.T) {
	g := NewGate(RZ, []int{3}, 0.5)
	if got := g.String(); got != "rz(0.5) q[3]" {
		t.Errorf("String = %q", got)
	}
	g2 := NewGate(CX, []int{0, 1})
	if !strings.Contains(g2.String(), "cx q[0],q[1]") {
		t.Errorf("String = %q", g2.String())
	}
}

func TestStagedValidate(t *testing.T) {
	s := &Staged{
		Name: "s", NumQubits: 4,
		Stages: []Stage{
			{Kind: OneQStage, Gates: []Gate{NewGate(U3, []int{0}, 1, 2, 3)}},
			{Kind: RydbergStage, Gates: []Gate{NewGate(CZ, []int{0, 1}), NewGate(CZ, []int{2, 3})}},
		},
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	one, two := s.GateCounts()
	if one != 1 || two != 2 {
		t.Errorf("counts (%d,%d)", one, two)
	}
	if s.NumRydbergStages() != 1 {
		t.Error("expected 1 Rydberg stage")
	}

	badKind := &Staged{NumQubits: 2, Stages: []Stage{{Kind: RydbergStage, Gates: []Gate{NewGate(U3, []int{0}, 0, 0, 0)}}}}
	if badKind.Validate() == nil {
		t.Error("U3 in Rydberg stage should fail")
	}
	overlap := &Staged{NumQubits: 3, Stages: []Stage{{Kind: RydbergStage, Gates: []Gate{NewGate(CZ, []int{0, 1}), NewGate(CZ, []int{1, 2})}}}}
	if overlap.Validate() == nil {
		t.Error("qubit reused within a stage should fail")
	}
}

func TestStagedFlatten(t *testing.T) {
	s := &Staged{
		Name: "s", NumQubits: 2,
		Stages: []Stage{
			{Kind: OneQStage, Gates: []Gate{NewGate(U3, []int{0}, math.Pi, 0, math.Pi)}},
			{Kind: RydbergStage, Gates: []Gate{NewGate(CZ, []int{0, 1})}},
		},
	}
	c := s.Flatten()
	if len(c.Gates) != 2 || c.Gates[1].Kind != CZ {
		t.Errorf("flatten wrong: %v", c.Gates)
	}
}

func TestStageQubits(t *testing.T) {
	st := Stage{Kind: RydbergStage, Gates: []Gate{NewGate(CZ, []int{0, 1}), NewGate(CZ, []int{4, 2})}}
	qs := stageQubits(st)
	if len(qs) != 4 || qs[0] != 0 || qs[3] != 2 {
		t.Errorf("Qubits = %v", qs)
	}
}

// The helpers below are test fixtures: the compiler itself never counts
// gates by arity, lists interaction edges or measures depth this way.

// countByArity returns the number of 1Q and 2Q+ gates (Measure/Barrier are
// not counted).
func countByArity(c *Circuit) (oneQ, multiQ int) {
	for _, g := range c.Gates {
		switch g.Kind {
		case Measure, Barrier:
			continue
		}
		if len(g.Qubits) == 1 {
			oneQ++
		} else {
			multiQ++
		}
	}
	return oneQ, multiQ
}

// twoQubitEdges returns the distinct unordered qubit pairs that appear in 2Q
// gates, useful for interaction-graph analyses.
func twoQubitEdges(c *Circuit) [][2]int {
	seen := map[[2]int]bool{}
	var edges [][2]int
	for _, g := range c.Gates {
		if len(g.Qubits) != 2 {
			continue
		}
		a, b := g.Qubits[0], g.Qubits[1]
		if a > b {
			a, b = b, a
		}
		k := [2]int{a, b}
		if !seen[k] {
			seen[k] = true
			edges = append(edges, k)
		}
	}
	return edges
}

// depth returns the circuit depth counting every gate as one time step.
func depth(c *Circuit) int {
	level := make([]int, c.NumQubits)
	d := 0
	for _, g := range c.Gates {
		if g.Kind == Barrier || g.Kind == Measure {
			continue
		}
		lv := 0
		for _, q := range g.Qubits {
			lv = max(lv, level[q])
		}
		for _, q := range g.Qubits {
			level[q] = lv + 1
		}
		d = max(d, lv+1)
	}
	return d
}

// stageQubits returns every qubit touched by the stage, in gate order.
func stageQubits(s Stage) []int {
	var qs []int
	for _, g := range s.Gates {
		qs = append(qs, g.Qubits...)
	}
	return qs
}
