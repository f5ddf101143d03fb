package sc

import (
	"testing"

	"zac/internal/bench"
	"zac/internal/circuit"
	"zac/internal/fidelity"
	"zac/internal/resynth"
)

func stage(t *testing.T, c *circuit.Circuit) *circuit.Staged {
	t.Helper()
	s, err := resynth.Preprocess(c)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// connected reports whether every qubit has a path to qubit 0.
func connected(g *Coupling) bool {
	for v := 1; v < g.N; v++ {
		if g.ShortestPath(0, v) == nil {
			return false
		}
	}
	return true
}

// numEdges counts couplers.
func numEdges(g *Coupling) int {
	n := 0
	for _, adj := range g.Adj {
		n += len(adj)
	}
	return n / 2
}

func TestHeavyHex127Shape(t *testing.T) {
	g := HeavyHex127()
	if g.N != 127 {
		t.Fatalf("N = %d", g.N)
	}
	if !connected(g) {
		t.Fatal("heavy-hex graph disconnected")
	}
	// Heavy-hex degree bound: row qubits ≤ 3, bridges = 2.
	for v, adj := range g.Adj {
		if len(adj) > 3 {
			t.Fatalf("vertex %d has degree %d > 3", v, len(adj))
		}
	}
	// Edge count: 6 rows of internal couplers + bridges.
	// rows: 13+14*5+13 = 96; bridges: 6*4*2 = 48 → 144.
	if got := numEdges(g); got != 144 {
		t.Errorf("edges = %d, want 144", got)
	}
}

func TestGridShape(t *testing.T) {
	g := Grid(11, 11)
	if g.N != 121 || !connected(g) {
		t.Fatalf("bad grid: N=%d", g.N)
	}
	if got, want := numEdges(g), 2*11*10; got != want {
		t.Errorf("edges = %d, want %d", got, want)
	}
	if !g.Adjacent(0, 1) || !g.Adjacent(0, 11) || g.Adjacent(0, 12) {
		t.Error("grid adjacency wrong")
	}
}

func TestShortestPath(t *testing.T) {
	g := Grid(5, 5)
	path := g.ShortestPath(0, 24)
	if len(path) != 9 { // manhattan distance 8 → 9 vertices
		t.Fatalf("path length %d, want 9", len(path))
	}
	if path[0] != 0 || path[len(path)-1] != 24 {
		t.Fatal("path endpoints wrong")
	}
	for i := 0; i+1 < len(path); i++ {
		if !g.Adjacent(path[i], path[i+1]) {
			t.Fatalf("path hop %d-%d not an edge", path[i], path[i+1])
		}
	}
	if p := g.ShortestPath(3, 3); len(p) != 1 {
		t.Error("self path should be trivial")
	}
}

func TestCompileAdjacentNoSwaps(t *testing.T) {
	g := Grid(3, 3)
	c := circuit.New("adj", 2)
	c.Append(circuit.CZ, []int{0, 1}) // physically adjacent under identity layout
	res, err := Compile(stage(t, c), g, fidelity.SCGrid())
	if err != nil {
		t.Fatal(err)
	}
	if res.NumSwaps != 0 {
		t.Errorf("swaps = %d, want 0", res.NumSwaps)
	}
	if res.Stats.TwoQGates != 1 {
		t.Errorf("2Q = %d", res.Stats.TwoQGates)
	}
}

func TestCompileDistantInsertsSwaps(t *testing.T) {
	g := Grid(4, 4)
	c := circuit.New("far", 16)
	c.Append(circuit.CZ, []int{0, 15}) // opposite corners
	res, err := Compile(stage(t, c), g, fidelity.SCGrid())
	if err != nil {
		t.Fatal(err)
	}
	if res.NumSwaps == 0 {
		t.Error("distant pair should require swaps")
	}
	if res.Stats.TwoQGates != 1+3*res.NumSwaps {
		t.Errorf("2Q accounting wrong: %d gates, %d swaps", res.Stats.TwoQGates, res.NumSwaps)
	}
}

func TestSwapsUpdateLayout(t *testing.T) {
	// Two identical long-range gates: the second should need fewer (or zero)
	// swaps because the first round of routing brought the operands together.
	g := Grid(5, 5)
	c1 := circuit.New("one", 25)
	c1.Append(circuit.CZ, []int{0, 24})
	res1, _ := Compile(stage(t, c1), g, fidelity.SCGrid())

	c2 := circuit.New("two", 25)
	c2.Append(circuit.CZ, []int{0, 24})
	c2.Append(circuit.CZ, []int{0, 24})
	res2, _ := Compile(stage(t, c2), g, fidelity.SCGrid())
	if res2.NumSwaps != res1.NumSwaps {
		t.Errorf("second identical gate should reuse the layout: %d vs %d swaps",
			res2.NumSwaps, res1.NumSwaps)
	}
}

func TestAllBenchmarksOnBothArchitectures(t *testing.T) {
	hh := HeavyHex127()
	grid := Grid(11, 11)
	for _, b := range bench.All() {
		st := stage(t, b.Build())
		for name, tc := range map[string]struct {
			g *Coupling
			p fidelity.Params
		}{
			"heron": {hh, fidelity.SCHeron()},
			"grid":  {grid, fidelity.SCGrid()},
		} {
			res, err := Compile(st, tc.g, tc.p)
			if err != nil {
				t.Fatalf("%s on %s: %v", b.Name, name, err)
			}
			if res.Breakdown.Total < 0 || res.Breakdown.Total > 1 {
				t.Fatalf("%s on %s: fidelity %v", b.Name, name, res.Breakdown.Total)
			}
			// SC durations are microseconds-scale, vastly shorter than the
			// neutral-atom millisecond scale (Table II).
			if res.Duration <= 0 || res.Duration > 1e4 {
				t.Fatalf("%s on %s: duration %v µs implausible", b.Name, name, res.Duration)
			}
		}
	}
}

func TestCapacity(t *testing.T) {
	g := Grid(2, 2)
	c := circuit.New("big", 5)
	c.Append(circuit.H, []int{4})
	if _, err := Compile(stage(t, c), g, fidelity.SCGrid()); err == nil {
		t.Fatal("expected capacity error")
	}
}
