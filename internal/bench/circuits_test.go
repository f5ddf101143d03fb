package bench

import (
	"math"
	"testing"

	"zac/internal/circuit"
	"zac/internal/resynth"
	"zac/internal/sim"
)

func TestAllBenchmarksValid(t *testing.T) {
	suite := All()
	if len(suite) != 17 {
		t.Fatalf("suite has %d circuits, want 17 (Fig. 8)", len(suite))
	}
	for _, b := range suite {
		c := b.Build()
		if c.NumQubits != b.NumQubits {
			t.Errorf("%s: %d qubits, declared %d", b.Name, c.NumQubits, b.NumQubits)
		}
		if err := c.Validate(); err != nil {
			t.Errorf("%s: %v", b.Name, err)
		}
		if len(c.Gates) == 0 {
			t.Errorf("%s: empty circuit", b.Name)
		}
	}
}

func TestAllBenchmarksPreprocess(t *testing.T) {
	for _, b := range All() {
		staged, err := resynth.Preprocess(b.Build())
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if err := staged.Validate(); err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		one, two := staged.GateCounts()
		if two == 0 {
			t.Errorf("%s: no 2Q gates after preprocessing", b.Name)
		}
		// Compiled counts must be within 2x of the paper's Qiskit numbers —
		// a loose sanity band (DESIGN.md, "Known deviations from the paper").
		if two > 2*b.Paper2Q || two < b.Paper2Q/2 {
			t.Errorf("%s: 2Q count %d far from paper's %d", b.Name, two, b.Paper2Q)
		}
		if one > 3*b.Paper1Q {
			t.Errorf("%s: 1Q count %d far above paper's %d", b.Name, one, b.Paper1Q)
		}
	}
}

func TestBVExactCounts(t *testing.T) {
	for _, tc := range []struct {
		n, want2Q int
	}{{14, 13}, {19, 18}, {30, 29}} {
		b, err := ByName(circuitName("bv", tc.n))
		if err != nil {
			t.Fatal(err)
		}
		staged, err := resynth.Preprocess(b.Build())
		if err != nil {
			t.Fatal(err)
		}
		if _, two := staged.GateCounts(); two != tc.want2Q {
			t.Errorf("bv_n%d: 2Q = %d, want %d", tc.n, two, tc.want2Q)
		}
	}
}

func circuitName(prefix string, n int) string {
	switch prefix {
	case "bv":
		switch n {
		case 14:
			return "bv_n14"
		case 19:
			return "bv_n19"
		case 30:
			return "bv_n30"
		}
	}
	return ""
}

func TestGHZAndQFTCounts(t *testing.T) {
	staged, err := resynth.Preprocess(GHZ(23))
	if err != nil {
		t.Fatal(err)
	}
	if _, two := staged.GateCounts(); two != 22 {
		t.Errorf("ghz_n23 2Q = %d, want 22", two)
	}
	stagedQ, err := resynth.Preprocess(QFT(18))
	if err != nil {
		t.Fatal(err)
	}
	if _, two := stagedQ.GateCounts(); two != 306 {
		t.Errorf("qft_n18 2Q = %d, want 306 (paper)", two)
	}
	stagedI, err := resynth.Preprocess(Ising(42, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, two := stagedI.GateCounts(); two != 82 {
		t.Errorf("ising_n42 2Q = %d, want 82 (paper)", two)
	}
}

func TestIsingParallelism(t *testing.T) {
	// Ising is the paper's high-parallelism workload: the 2 RZZ sublayers
	// decompose to 4 CZ stages; GHZ is fully sequential.
	stagedI, _ := resynth.Preprocess(Ising(42, 1))
	stagedG, _ := resynth.Preprocess(GHZ(40))
	if ri, rg := stagedI.NumRydbergStages(), stagedG.NumRydbergStages(); ri >= rg {
		t.Errorf("ising stages %d should be far fewer than ghz stages %d", ri, rg)
	}
	if ri := stagedI.NumRydbergStages(); ri > 6 {
		t.Errorf("ising_n42 should compress to ≤6 Rydberg stages, got %d", ri)
	}
}

func TestBVSemantics(t *testing.T) {
	// Small BV instance: measuring the data register must reveal the secret.
	secret := []bool{true, false, true}
	c := BV(4, secret)
	s, err := sim.Run(c)
	if err != nil {
		t.Fatal(err)
	}
	// After the algorithm, data qubits = secret with certainty; ancilla in
	// |−⟩. Probability mass on basis states whose data bits equal secret
	// must be 1.
	prob := 0.0
	for idx, amp := range s.Amp {
		match := true
		for i, bit := range secret {
			if ((idx>>uint(i))&1 == 1) != bit {
				match = false
				break
			}
		}
		if match {
			prob += real(amp)*real(amp) + imag(amp)*imag(amp)
		}
	}
	if math.Abs(prob-1) > 1e-9 {
		t.Errorf("BV secret recovery probability = %v", prob)
	}
}

func TestWStateSemantics(t *testing.T) {
	n := 4
	c := WState(n)
	s, err := sim.Run(c)
	if err != nil {
		t.Fatal(err)
	}
	// The W state has amplitude 1/√n on each weight-1 basis state.
	want := 1 / math.Sqrt(float64(n))
	total := 0.0
	for idx, amp := range s.Amp {
		mag := math.Hypot(real(amp), imag(amp))
		ones := 0
		for i := 0; i < n; i++ {
			if (idx>>uint(i))&1 == 1 {
				ones++
			}
		}
		if ones == 1 {
			if math.Abs(mag-want) > 1e-9 {
				t.Errorf("weight-1 state %b has |amp| %v, want %v", idx, mag, want)
			}
			total += mag * mag
		} else if mag > 1e-9 {
			t.Errorf("non-weight-1 state %b has amplitude %v", idx, mag)
		}
	}
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("W-state mass = %v", total)
	}
}

func TestGHZSemantics(t *testing.T) {
	s, err := sim.Run(GHZ(6))
	if err != nil {
		t.Fatal(err)
	}
	r := 1 / math.Sqrt2
	if math.Abs(real(s.Amp[0])-r) > 1e-9 || math.Abs(real(s.Amp[63])-r) > 1e-9 {
		t.Error("GHZ amplitudes wrong")
	}
}

func TestSwapTestIdenticalStates(t *testing.T) {
	// With both registers in identical states, the swap test ancilla must
	// return |0⟩ with probability 1... for pure identical states P(0) = 1.
	n := 5 // 1 ancilla + 2+2
	c := circuit.New("st", n)
	c.Append(circuit.H, []int{0})
	for i := 0; i < 2; i++ {
		c.Append(circuit.CSWAP, []int{0, 1 + i, 3 + i})
	}
	c.Append(circuit.H, []int{0})
	s, err := sim.Run(c)
	if err != nil {
		t.Fatal(err)
	}
	p0 := 0.0
	for idx, amp := range s.Amp {
		if idx&1 == 0 {
			p0 += real(amp)*real(amp) + imag(amp)*imag(amp)
		}
	}
	if math.Abs(p0-1) > 1e-9 {
		t.Errorf("swap test on identical |00⟩ registers: P(anc=0) = %v", p0)
	}
}

func TestByName(t *testing.T) {
	b, err := ByName("qft_n18")
	if err != nil || b.NumQubits != 18 {
		t.Fatalf("ByName failed: %v %+v", err, b)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown name accepted")
	}
}

func TestSpacedString(t *testing.T) {
	s := spacedString(69, 36)
	ones := 0
	for _, b := range s {
		if b {
			ones++
		}
	}
	if ones != 36 {
		t.Errorf("spaced string has %d ones, want 36", ones)
	}
}
