package sim

import (
	"math"
	"math/rand"
	"testing"

	"zac/internal/circuit"
	"zac/internal/linalg"
)

func TestBellState(t *testing.T) {
	c := circuit.New("bell", 2)
	c.Append(circuit.H, []int{0})
	c.Append(circuit.CX, []int{0, 1})
	s, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	r := 1 / math.Sqrt2
	if math.Abs(real(s.Amp[0])-r) > 1e-12 || math.Abs(real(s.Amp[3])-r) > 1e-12 {
		t.Fatalf("bell amplitudes wrong: %v", s.Amp)
	}
	if math.Abs(norm(s)-1) > 1e-12 {
		t.Fatalf("norm %v", norm(s))
	}
}

func TestGHZ(t *testing.T) {
	n := 5
	c := circuit.New("ghz", n)
	c.Append(circuit.H, []int{0})
	for i := 0; i < n-1; i++ {
		c.Append(circuit.CX, []int{i, i + 1})
	}
	s, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	r := 1 / math.Sqrt2
	last := (1 << uint(n)) - 1
	if math.Abs(real(s.Amp[0])-r) > 1e-12 || math.Abs(real(s.Amp[last])-r) > 1e-12 {
		t.Fatalf("GHZ amplitudes wrong: |0..0|=%v |1..1|=%v", s.Amp[0], s.Amp[last])
	}
}

func TestCZSymmetric(t *testing.T) {
	for _, init := range [][]circuit.Kind{{circuit.X, circuit.X}, {circuit.H, circuit.H}} {
		a := circuit.New("a", 2)
		b := circuit.New("b", 2)
		for q, k := range init {
			a.Append(k, []int{q})
			b.Append(k, []int{q})
		}
		a.Append(circuit.CZ, []int{0, 1})
		b.Append(circuit.CZ, []int{1, 0})
		sa, _ := Run(a)
		sb, _ := Run(b)
		if f := FidelityUpToPhase(sa, sb); math.Abs(f-1) > 1e-12 {
			t.Fatalf("CZ not symmetric: fidelity %v", f)
		}
	}
}

func TestCCXTruthTable(t *testing.T) {
	// |110⟩ -> |111⟩ (qubits 0,1 controls, 2 target)
	c := circuit.New("ccx", 3)
	c.Append(circuit.X, []int{0})
	c.Append(circuit.X, []int{1})
	c.Append(circuit.CCX, []int{0, 1, 2})
	s, _ := Run(c)
	if math.Abs(real(s.Amp[7])-1) > 1e-12 {
		t.Fatalf("CCX on |110⟩ failed: %v", s.Amp)
	}
	// |100⟩ -> |100⟩
	c2 := circuit.New("ccx2", 3)
	c2.Append(circuit.X, []int{0})
	c2.Append(circuit.CCX, []int{0, 1, 2})
	s2, _ := Run(c2)
	if math.Abs(real(s2.Amp[1])-1) > 1e-12 {
		t.Fatalf("CCX on |100⟩ should be identity: %v", s2.Amp)
	}
}

func TestSwapGate(t *testing.T) {
	c := circuit.New("swap", 2)
	c.Append(circuit.X, []int{0})
	c.Append(circuit.SWAP, []int{0, 1})
	s, _ := Run(c)
	if math.Abs(real(s.Amp[2])-1) > 1e-12 {
		t.Fatalf("SWAP |10⟩ wrong: %v", s.Amp)
	}
}

func TestCSwapControlled(t *testing.T) {
	// control 0 off: nothing happens
	c := circuit.New("cswap", 3)
	c.Append(circuit.X, []int{1})
	c.Append(circuit.CSWAP, []int{0, 1, 2})
	s, _ := Run(c)
	if math.Abs(real(s.Amp[2])-1) > 1e-12 {
		t.Fatalf("CSWAP with control off moved state: %v", s.Amp)
	}
	// control on: swap
	c2 := circuit.New("cswap2", 3)
	c2.Append(circuit.X, []int{0})
	c2.Append(circuit.X, []int{1})
	c2.Append(circuit.CSWAP, []int{0, 1, 2})
	s2, _ := Run(c2)
	if math.Abs(real(s2.Amp[0b101])-1) > 1e-12 {
		t.Fatalf("CSWAP with control on failed: %v", s2.Amp)
	}
}

func TestRZZDiagonal(t *testing.T) {
	// On |11⟩, RZZ(θ) applies e^{-iθ/2}.
	th := 0.73
	c := circuit.New("rzz", 2)
	c.Append(circuit.X, []int{0})
	c.Append(circuit.X, []int{1})
	c.Append(circuit.RZZ, []int{0, 1}, th)
	s, _ := Run(c)
	wantRe, wantIm := math.Cos(-th/2), math.Sin(-th/2)
	if math.Abs(real(s.Amp[3])-wantRe) > 1e-12 || math.Abs(imag(s.Amp[3])-wantIm) > 1e-12 {
		t.Fatalf("RZZ phase wrong: %v", s.Amp[3])
	}
}

func TestNormPreservedRandom(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	kinds2q := []circuit.Kind{circuit.CX, circuit.CZ, circuit.SWAP, circuit.CY}
	for iter := 0; iter < 50; iter++ {
		n := 2 + r.Intn(5)
		c := circuit.New("rand", n)
		for g := 0; g < 30; g++ {
			if r.Float64() < 0.5 {
				c.Append(circuit.U3, []int{r.Intn(n)}, r.Float64()*math.Pi, r.Float64(), r.Float64())
			} else {
				a := r.Intn(n)
				b := r.Intn(n)
				for b == a {
					b = r.Intn(n)
				}
				c.Append(kinds2q[r.Intn(len(kinds2q))], []int{a, b})
			}
		}
		s, err := Run(c)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(norm(s)-1) > 1e-9 {
			t.Fatalf("iter %d: norm %v", iter, norm(s))
		}
	}
}

func TestFidelityUpToPhase(t *testing.T) {
	a := NewState(2)
	b := NewState(2)
	if f := FidelityUpToPhase(a, b); math.Abs(f-1) > 1e-12 {
		t.Fatalf("identical states fidelity %v", f)
	}
	// global phase
	for i := range b.Amp {
		b.Amp[i] *= complex(math.Cos(1.2), math.Sin(1.2))
	}
	if f := FidelityUpToPhase(a, b); math.Abs(f-1) > 1e-12 {
		t.Fatalf("phase-rotated fidelity %v", f)
	}
	// orthogonal
	c := NewState(2)
	c.Amp[0], c.Amp[1] = 0, 1
	if f := FidelityUpToPhase(a, c); f > 1e-12 {
		t.Fatalf("orthogonal fidelity %v", f)
	}
	if FidelityUpToPhase(NewState(1), NewState(2)) != 0 {
		t.Fatal("size mismatch should give 0")
	}
}

func TestControlledGateMatrixAgreement(t *testing.T) {
	// CRZ via ApplyControlled1Q must equal decomposition rz-cx-rz-cx.
	th := 1.1
	a := circuit.New("a", 2)
	a.Append(circuit.H, []int{0})
	a.Append(circuit.H, []int{1})
	a.Append(circuit.CRZ, []int{0, 1}, th)

	b := circuit.New("b", 2)
	b.Append(circuit.H, []int{0})
	b.Append(circuit.H, []int{1})
	b.Append(circuit.RZ, []int{1}, th/2)
	b.Append(circuit.CX, []int{0, 1})
	b.Append(circuit.RZ, []int{1}, -th/2)
	b.Append(circuit.CX, []int{0, 1})

	sa, _ := Run(a)
	sb, _ := Run(b)
	if f := FidelityUpToPhase(sa, sb); math.Abs(f-1) > 1e-9 {
		t.Fatalf("CRZ decomposition mismatch: %v", f)
	}
}

func TestApply1QMatchesMatrix(t *testing.T) {
	m := linalg.U3(0.4, 1.2, -0.7)
	s := NewState(1)
	s.Apply1Q(m, 0)
	if d := math.Abs(real(s.Amp[0])-real(m.A)) + math.Abs(real(s.Amp[1])-real(m.C)); d > 1e-12 {
		t.Fatalf("Apply1Q column mismatch: %v vs (%v,%v)", s.Amp, m.A, m.C)
	}
}

// norm returns the 2-norm of the state, which every gate must keep at 1.
func norm(s *State) float64 {
	t := 0.0
	for _, a := range s.Amp {
		t += real(a)*real(a) + imag(a)*imag(a)
	}
	return math.Sqrt(t)
}
