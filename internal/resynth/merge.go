package resynth

import (
	"fmt"

	"zac/internal/circuit"
	"zac/internal/linalg"
)

// identityTol is the phase-invariant distance below which an accumulated 1Q
// unitary is considered the identity and elided.
const identityTol = 1e-9

// Optimize1Q merges runs of adjacent single-qubit gates on the same qubit
// into a single U3 by multiplying their 2×2 unitaries and re-extracting ZYZ
// angles; accumulated identities are dropped entirely. The input may contain
// arbitrary 1Q kinds; the output contains only {CZ, U3}.
func Optimize1Q(c *circuit.Circuit) (*circuit.Circuit, error) {
	pending := make([]linalg.Mat2, c.NumQubits)
	dirty := make([]bool, c.NumQubits)
	// Size the output: every multi-qubit gate is copied, and every run of
	// 1Q gates on one qubit becomes at most one U3.
	var size gateBuf
	for _, g := range c.Gates {
		switch {
		case g.Kind == circuit.Measure || g.Kind == circuit.Barrier:
		case len(g.Qubits) == 1:
			if q := g.Qubits[0]; !dirty[q] {
				dirty[q] = true
				size.add(circuit.U3, g.Qubits, 0, 0, 0)
			}
		default:
			for _, q := range g.Qubits {
				dirty[q] = false
			}
			size.add(g.Kind, g.Qubits)
		}
	}
	clear(dirty)
	out := size.sized(circuit.New(c.Name, c.NumQubits))
	for q := range pending {
		pending[q] = linalg.Identity()
	}

	flush := func(q int) error {
		if !dirty[q] {
			return nil
		}
		m := pending[q]
		pending[q] = linalg.Identity()
		dirty[q] = false
		if m.IsIdentity(identityTol) {
			return nil
		}
		th, ph, la, err := linalg.ZYZ(m)
		if err != nil {
			return err
		}
		out.add(circuit.U3, []int{q}, th, ph, la)
		return nil
	}

	for i, g := range c.Gates {
		switch {
		case g.Kind == circuit.Measure || g.Kind == circuit.Barrier:
			continue
		case len(g.Qubits) == 1:
			m, err := gateMatrix(g)
			if err != nil {
				return nil, fmt.Errorf("resynth: gate %d: %w", i, err)
			}
			q := g.Qubits[0]
			pending[q] = linalg.Mul(m, pending[q]) // later gate on the left
			dirty[q] = true
		case g.Kind == circuit.CZ || g.Kind == circuit.CCZ:
			for _, q := range g.Qubits {
				if err := flush(q); err != nil {
					return nil, err
				}
			}
			out.add(g.Kind, g.Qubits)
		default:
			return nil, fmt.Errorf("resynth: Optimize1Q expects a {CZ,CCZ,1Q} circuit, found %s at %d", g.Kind, i)
		}
	}
	for q := 0; q < c.NumQubits; q++ {
		if err := flush(q); err != nil {
			return nil, err
		}
	}
	return out.c, nil
}
