package resynth

import (
	"math"
	"math/rand"
	"testing"

	"zac/internal/circuit"
	"zac/internal/sim"
)

// checkEquivalent verifies that original and rewritten circuits produce the
// same statevector up to global phase.
func checkEquivalent(t *testing.T, orig, rewritten *circuit.Circuit) {
	t.Helper()
	sa, err := sim.Run(orig)
	if err != nil {
		t.Fatalf("sim original: %v", err)
	}
	sb, err := sim.Run(rewritten)
	if err != nil {
		t.Fatalf("sim rewritten: %v", err)
	}
	if f := sim.FidelityUpToPhase(sa, sb); math.Abs(f-1) > 1e-7 {
		t.Fatalf("circuits not equivalent: fidelity %v\noriginal: %v\nrewritten: %v", f, orig.Gates, rewritten.Gates)
	}
}

func TestDecomposeOnlyNativeGates(t *testing.T) {
	c := circuit.New("mix", 3)
	c.Append(circuit.H, []int{0})
	c.Append(circuit.CCX, []int{0, 1, 2})
	c.Append(circuit.SWAP, []int{1, 2})
	c.Append(circuit.RZZ, []int{0, 1}, 0.4)
	d, err := DecomposeKeep(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range d.Gates {
		if g.Kind != circuit.U3 && g.Kind != circuit.CZ {
			t.Fatalf("gate %d has non-native kind %s", i, g.Kind)
		}
	}
	// The counting pass sizes the output exactly.
	if len(d.Gates) != cap(d.Gates) {
		t.Errorf("decomposed %d gates into a list of capacity %d", len(d.Gates), cap(d.Gates))
	}
}

func TestDecomposeEquivalenceAllKinds(t *testing.T) {
	mk := func(build func(c *circuit.Circuit)) *circuit.Circuit {
		c := circuit.New("t", 3)
		// Non-trivial input state so diagonal errors are visible.
		c.Append(circuit.H, []int{0})
		c.Append(circuit.H, []int{1})
		c.Append(circuit.H, []int{2})
		c.Append(circuit.T, []int{0})
		c.Append(circuit.S, []int{1})
		build(c)
		return c
	}
	cases := map[string]func(c *circuit.Circuit){
		"x":     func(c *circuit.Circuit) { c.Append(circuit.X, []int{0}) },
		"y":     func(c *circuit.Circuit) { c.Append(circuit.Y, []int{1}) },
		"z":     func(c *circuit.Circuit) { c.Append(circuit.Z, []int{2}) },
		"sdg":   func(c *circuit.Circuit) { c.Append(circuit.Sdg, []int{0}) },
		"tdg":   func(c *circuit.Circuit) { c.Append(circuit.Tdg, []int{0}) },
		"rx":    func(c *circuit.Circuit) { c.Append(circuit.RX, []int{0}, 0.7) },
		"ry":    func(c *circuit.Circuit) { c.Append(circuit.RY, []int{1}, -1.2) },
		"rz":    func(c *circuit.Circuit) { c.Append(circuit.RZ, []int{2}, 2.1) },
		"u1":    func(c *circuit.Circuit) { c.Append(circuit.U1, []int{0}, 0.3) },
		"u2":    func(c *circuit.Circuit) { c.Append(circuit.U2, []int{1}, 0.4, 1.1) },
		"cx":    func(c *circuit.Circuit) { c.Append(circuit.CX, []int{0, 1}) },
		"cy":    func(c *circuit.Circuit) { c.Append(circuit.CY, []int{1, 2}) },
		"cz":    func(c *circuit.Circuit) { c.Append(circuit.CZ, []int{0, 2}) },
		"swap":  func(c *circuit.Circuit) { c.Append(circuit.SWAP, []int{0, 2}) },
		"cp":    func(c *circuit.Circuit) { c.Append(circuit.CP, []int{0, 1}, 0.9) },
		"crx":   func(c *circuit.Circuit) { c.Append(circuit.CRX, []int{0, 1}, 1.3) },
		"cry":   func(c *circuit.Circuit) { c.Append(circuit.CRY, []int{1, 2}, -0.8) },
		"crz":   func(c *circuit.Circuit) { c.Append(circuit.CRZ, []int{0, 2}, 0.5) },
		"rzz":   func(c *circuit.Circuit) { c.Append(circuit.RZZ, []int{1, 2}, 1.7) },
		"rxx":   func(c *circuit.Circuit) { c.Append(circuit.RXX, []int{0, 1}, 0.6) },
		"ccx":   func(c *circuit.Circuit) { c.Append(circuit.CCX, []int{0, 1, 2}) },
		"ccz":   func(c *circuit.Circuit) { c.Append(circuit.CCZ, []int{0, 1, 2}) },
		"cswap": func(c *circuit.Circuit) { c.Append(circuit.CSWAP, []int{0, 1, 2}) },
	}
	for name, build := range cases {
		t.Run(name, func(t *testing.T) {
			orig := mk(build)
			dec, err := DecomposeKeep(orig, nil)
			if err != nil {
				t.Fatal(err)
			}
			checkEquivalent(t, orig, dec)
		})
	}
}

func TestOptimize1QMergesRuns(t *testing.T) {
	c := circuit.New("runs", 1)
	c.Append(circuit.U3, []int{0}, 0.3, 0.1, 0.2)
	c.Append(circuit.U3, []int{0}, 1.1, -0.4, 0.9)
	c.Append(circuit.U3, []int{0}, 0.2, 0.0, -1.0)
	opt, err := Optimize1Q(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(opt.Gates) != 1 {
		t.Fatalf("expected single merged U3, got %d gates", len(opt.Gates))
	}
	checkEquivalent(t, c, opt)
}

func TestOptimize1QDropsIdentity(t *testing.T) {
	c := circuit.New("id", 2)
	c.Append(circuit.H, []int{0})
	c.Append(circuit.H, []int{0}) // H·H = I
	dec, _ := DecomposeKeep(c, nil)
	opt, err := Optimize1Q(dec)
	if err != nil {
		t.Fatal(err)
	}
	if len(opt.Gates) != 0 {
		t.Fatalf("H·H should vanish, got %v", opt.Gates)
	}
}

func TestOptimize1QKeepsCZBoundary(t *testing.T) {
	c := circuit.New("boundary", 2)
	c.Append(circuit.H, []int{0})
	c.Append(circuit.CZ, []int{0, 1})
	c.Append(circuit.H, []int{0}) // must NOT merge across CZ
	dec, _ := DecomposeKeep(c, nil)
	opt, err := Optimize1Q(dec)
	if err != nil {
		t.Fatal(err)
	}
	one, two := 0, 0
	for _, g := range opt.Gates {
		if len(g.Qubits) == 1 {
			one++
		} else {
			two++
		}
	}
	if two != 1 || one != 2 {
		t.Fatalf("expected 2 U3 + 1 CZ, got %d U3 %d CZ: %v", one, two, opt.Gates)
	}
	checkEquivalent(t, c, opt)
}

func TestScheduleStructure(t *testing.T) {
	// The paper's running example (Fig. 4 shape): stages alternate and every
	// qubit appears at most once per stage.
	c := circuit.New("fig4", 6)
	for q := 0; q < 6; q++ {
		c.Append(circuit.H, []int{q})
	}
	c.Append(circuit.CX, []int{0, 1})
	c.Append(circuit.CX, []int{3, 4})
	c.Append(circuit.H, []int{0})
	c.Append(circuit.CX, []int{1, 2})
	c.Append(circuit.CX, []int{3, 5})
	c.Append(circuit.CX, []int{0, 4})
	st, err := Preprocess(c)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Validate(); err != nil {
		t.Fatal(err)
	}
	ryd := st.RydbergStages()
	if len(ryd) != 2 {
		t.Fatalf("expected 2 Rydberg stages (paper example), got %d", len(ryd))
	}
	// First Rydberg stage must hold 2 gates, second 3 (gates (0,1),(3,4) then
	// (1,2),(3,5),(0,4)).
	if n := len(st.Stages[ryd[0]].Gates); n != 2 {
		t.Errorf("stage 1 has %d gates, want 2", n)
	}
	if n := len(st.Stages[ryd[1]].Gates); n != 3 {
		t.Errorf("stage 2 has %d gates, want 3", n)
	}
}

func TestPreprocessEquivalenceRandom(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	kinds := []circuit.Kind{
		circuit.H, circuit.X, circuit.T, circuit.S, circuit.RX, circuit.RZ,
		circuit.CX, circuit.CZ, circuit.SWAP, circuit.CP, circuit.CCX, circuit.RZZ,
	}
	for iter := 0; iter < 30; iter++ {
		n := 2 + r.Intn(4)
		c := circuit.New("rand", n)
		for g := 0; g < 25; g++ {
			k := kinds[r.Intn(len(kinds))]
			if k.NumQubits() > n {
				continue
			}
			qs := r.Perm(n)[:k.NumQubits()]
			var params []float64
			for p := 0; p < k.NumParams(); p++ {
				params = append(params, (r.Float64()-0.5)*2*math.Pi)
			}
			c.Append(k, qs, params...)
		}
		st, err := Preprocess(c)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		if err := st.Validate(); err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		checkEquivalent(t, c, st.Flatten())
	}
}

func TestPreprocessCountsReasonable(t *testing.T) {
	// A GHZ-10: expect 9 CZ and ~2n U3 after optimization.
	n := 10
	c := circuit.New("ghz", n)
	c.Append(circuit.H, []int{0})
	for i := 0; i < n-1; i++ {
		c.Append(circuit.CX, []int{i, i + 1})
	}
	st, err := Preprocess(c)
	if err != nil {
		t.Fatal(err)
	}
	one, two := st.GateCounts()
	if two != n-1 {
		t.Errorf("CZ count = %d, want %d", two, n-1)
	}
	if one == 0 || one > 3*n {
		t.Errorf("suspicious U3 count %d", one)
	}
	// GHZ is sequential: every CZ is its own Rydberg stage.
	if got := st.NumRydbergStages(); got != n-1 {
		t.Errorf("Rydberg stages = %d, want %d", got, n-1)
	}
}

func TestScheduleRejectsForeignKinds(t *testing.T) {
	c := circuit.New("bad", 2)
	c.Append(circuit.CX, []int{0, 1})
	if _, err := Schedule(c); err == nil {
		t.Fatal("Schedule should reject non-{CZ,U3} circuits")
	}
}

func TestDecomposeDropsNonUnitary(t *testing.T) {
	c := circuit.New("m", 1)
	c.Append(circuit.H, []int{0})
	c.Append(circuit.Measure, []int{0})
	d, err := DecomposeKeep(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range d.Gates {
		if g.Kind == circuit.Measure {
			t.Fatal("measure not dropped")
		}
	}
}
