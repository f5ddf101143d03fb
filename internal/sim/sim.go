// Package sim is a small dense statevector simulator used to verify that the
// resynthesis pass preserves circuit semantics: it executes circuits of up to
// ~14 qubits exactly and compares final states up to global phase. It is a
// test substrate, not a performance simulator.
package sim

import (
	"fmt"
	"math"
	"math/cmplx"

	"zac/internal/circuit"
	"zac/internal/linalg"
)

// State is a dense statevector over n qubits; amplitude index bit q (LSB =
// qubit 0) gives the computational-basis value of qubit q.
type State struct {
	N   int
	Amp []complex128
}

// NewState returns |0...0⟩ on n qubits.
func NewState(n int) *State {
	if n < 0 || n > 24 {
		panic(fmt.Sprintf("sim: unsupported qubit count %d", n))
	}
	s := &State{N: n, Amp: make([]complex128, 1<<uint(n))}
	s.Amp[0] = 1
	return s
}

// Apply1Q applies a 2×2 unitary to qubit q.
func (s *State) Apply1Q(m linalg.Mat2, q int) {
	bit := 1 << uint(q)
	for i := 0; i < len(s.Amp); i++ {
		if i&bit != 0 {
			continue
		}
		j := i | bit
		a0, a1 := s.Amp[i], s.Amp[j]
		s.Amp[i] = m.A*a0 + m.B*a1
		s.Amp[j] = m.C*a0 + m.D*a1
	}
}

// ApplyCZ applies a controlled-Z between qubits a and b.
func (s *State) ApplyCZ(a, b int) {
	mask := (1 << uint(a)) | (1 << uint(b))
	for i := range s.Amp {
		if i&mask == mask {
			s.Amp[i] = -s.Amp[i]
		}
	}
}

// ApplyControlled1Q applies m to target t when all controls are 1.
func (s *State) ApplyControlled1Q(m linalg.Mat2, controls []int, t int) {
	cmask := 0
	for _, c := range controls {
		cmask |= 1 << uint(c)
	}
	bit := 1 << uint(t)
	for i := 0; i < len(s.Amp); i++ {
		if i&bit != 0 || i&cmask != cmask {
			continue
		}
		j := i | bit
		a0, a1 := s.Amp[i], s.Amp[j]
		s.Amp[i] = m.A*a0 + m.B*a1
		s.Amp[j] = m.C*a0 + m.D*a1
	}
}

// ApplySwap exchanges qubits a and b.
func (s *State) ApplySwap(a, b int) {
	ba, bb := 1<<uint(a), 1<<uint(b)
	for i := range s.Amp {
		if i&ba != 0 && i&bb == 0 {
			j := (i &^ ba) | bb
			s.Amp[i], s.Amp[j] = s.Amp[j], s.Amp[i]
		}
	}
}

// matrix1Q maps 1Q kinds to matrices (mirrors resynth but kept separate so
// the two implementations check each other).
func matrix1Q(g circuit.Gate) (linalg.Mat2, bool) {
	switch g.Kind {
	case circuit.U3:
		return linalg.U3(g.Params[0], g.Params[1], g.Params[2]), true
	case circuit.H:
		return linalg.H(), true
	case circuit.X:
		return linalg.X(), true
	case circuit.Y:
		return linalg.Y(), true
	case circuit.Z:
		return linalg.Z(), true
	case circuit.S:
		return linalg.S(), true
	case circuit.Sdg:
		return linalg.Sdg(), true
	case circuit.T:
		return linalg.T(), true
	case circuit.Tdg:
		return linalg.Tdg(), true
	case circuit.RX:
		return linalg.RX(g.Params[0]), true
	case circuit.RY:
		return linalg.RY(g.Params[0]), true
	case circuit.RZ:
		return linalg.RZ(g.Params[0]), true
	case circuit.U1:
		return linalg.Phase(g.Params[0]), true
	case circuit.U2:
		return linalg.U3(math.Pi/2, g.Params[0], g.Params[1]), true
	case circuit.ID:
		return linalg.Identity(), true
	}
	return linalg.Mat2{}, false
}

// Run executes every unitary gate in c on a fresh |0...0⟩ state and returns
// the final statevector. Measure/Barrier are skipped.
func Run(c *circuit.Circuit) (*State, error) {
	s := NewState(c.NumQubits)
	for i, g := range c.Gates {
		if err := s.ApplyGate(g); err != nil {
			return nil, fmt.Errorf("sim: gate %d: %w", i, err)
		}
	}
	return s, nil
}

// ApplyGate executes one gate of any supported kind.
func (s *State) ApplyGate(g circuit.Gate) error {
	if m, ok := matrix1Q(g); ok {
		s.Apply1Q(m, g.Qubits[0])
		return nil
	}
	q := g.Qubits
	switch g.Kind {
	case circuit.CZ:
		s.ApplyCZ(q[0], q[1])
	case circuit.CX:
		s.ApplyControlled1Q(linalg.X(), q[:1], q[1])
	case circuit.CY:
		s.ApplyControlled1Q(linalg.Y(), q[:1], q[1])
	case circuit.SWAP:
		s.ApplySwap(q[0], q[1])
	case circuit.CP:
		s.ApplyControlled1Q(linalg.Phase(g.Params[0]), q[:1], q[1])
	case circuit.CRX:
		s.ApplyControlled1Q(linalg.RX(g.Params[0]), q[:1], q[1])
	case circuit.CRY:
		s.ApplyControlled1Q(linalg.RY(g.Params[0]), q[:1], q[1])
	case circuit.CRZ:
		s.ApplyControlled1Q(linalg.RZ(g.Params[0]), q[:1], q[1])
	case circuit.RZZ:
		// exp(-iθ/2 Z⊗Z): phase e^{-iθ/2} on even parity, e^{+iθ/2} on odd.
		th := g.Params[0]
		even, odd := cmplx.Exp(complex(0, -th/2)), cmplx.Exp(complex(0, th/2))
		ma, mb := 1<<uint(q[0]), 1<<uint(q[1])
		for i := range s.Amp {
			p1 := i&ma != 0
			p2 := i&mb != 0
			if p1 == p2 {
				s.Amp[i] *= even
			} else {
				s.Amp[i] *= odd
			}
		}
	case circuit.RXX:
		// Conjugate RZZ by H⊗H.
		s.Apply1Q(linalg.H(), q[0])
		s.Apply1Q(linalg.H(), q[1])
		if err := s.ApplyGate(circuit.NewGate(circuit.RZZ, q, g.Params[0])); err != nil {
			return err
		}
		s.Apply1Q(linalg.H(), q[0])
		s.Apply1Q(linalg.H(), q[1])
	case circuit.CCX:
		s.ApplyControlled1Q(linalg.X(), q[:2], q[2])
	case circuit.CCZ:
		s.ApplyControlled1Q(linalg.Z(), q[:2], q[2])
	case circuit.CSWAP:
		// controlled swap via three controlled-X
		s.ApplyControlled1Q(linalg.X(), []int{q[2]}, q[1])
		s.ApplyControlled1Q(linalg.X(), []int{q[0], q[1]}, q[2])
		s.ApplyControlled1Q(linalg.X(), []int{q[2]}, q[1])
	case circuit.Measure, circuit.Barrier:
		// skipped
	default:
		return fmt.Errorf("unsupported kind %v", g.Kind)
	}
	return nil
}

// FidelityUpToPhase returns |⟨a|b⟩| — 1.0 means the states are equal up to a
// global phase.
func FidelityUpToPhase(a, b *State) float64 {
	if a.N != b.N {
		return 0
	}
	var dot complex128
	for i := range a.Amp {
		dot += cmplx.Conj(a.Amp[i]) * b.Amp[i]
	}
	return cmplx.Abs(dot)
}
