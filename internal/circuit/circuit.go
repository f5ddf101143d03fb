// Package circuit defines quantum circuits at two levels: the input level
// (the common gate vocabulary found in QASMBench programs) and the hardware
// level used by the zoned architecture, whose native gate set is {CZ, U3}
// (paper §IV). It also provides the dependency (DAG) utilities the
// preprocessing and scheduling passes rely on.
package circuit

import (
	"fmt"
	"slices"
	"strings"
)

// Kind enumerates the supported gate kinds.
type Kind int

const (
	// Hardware-native kinds.
	U3 Kind = iota // params: theta, phi, lambda
	CZ

	// Input-level 1Q kinds (decomposed by resynthesis).
	H
	X
	Y
	Z
	S
	Sdg
	T
	Tdg
	RX // params: theta
	RY // params: theta
	RZ // params: theta
	U1 // params: lambda (phase gate)
	U2 // params: phi, lambda
	ID

	// Input-level multi-qubit kinds.
	CX
	CY
	CCX
	CCZ
	SWAP
	CSWAP
	CP  // controlled phase; params: lambda
	CRX // params: theta
	CRY // params: theta
	CRZ // params: theta
	RZZ // params: theta
	RXX // params: theta

	// Non-unitary markers (accepted on input, dropped by resynthesis).
	Measure
	Barrier
)

var kindNames = map[Kind]string{
	U3: "u3", CZ: "cz", H: "h", X: "x", Y: "y", Z: "z", S: "s", Sdg: "sdg",
	T: "t", Tdg: "tdg", RX: "rx", RY: "ry", RZ: "rz", U1: "u1", U2: "u2",
	ID: "id", CX: "cx", CY: "cy", CCX: "ccx", CCZ: "ccz", SWAP: "swap",
	CSWAP: "cswap", CP: "cp", CRX: "crx", CRY: "cry", CRZ: "crz",
	RZZ: "rzz", RXX: "rxx", Measure: "measure", Barrier: "barrier",
}

// String returns the lowercase QASM-style mnemonic for the kind.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// NumQubits returns the arity of the gate kind.
func (k Kind) NumQubits() int {
	switch k {
	case CX, CY, CZ, SWAP, CP, CRX, CRY, CRZ, RZZ, RXX:
		return 2
	case CCX, CCZ, CSWAP:
		return 3
	default:
		return 1
	}
}

// NumParams returns the number of float parameters the kind takes.
func (k Kind) NumParams() int {
	switch k {
	case U3:
		return 3
	case U2:
		return 2
	case RX, RY, RZ, U1, CP, CRX, CRY, CRZ, RZZ, RXX:
		return 1
	default:
		return 0
	}
}

// Gate is a single operation on one or more qubits.
type Gate struct {
	Kind   Kind
	Qubits []int
	Params []float64
}

// NewGate constructs a gate, panicking on arity mismatch; it is the checked
// constructor used by the generators and the QASM parser.
func NewGate(k Kind, qubits []int, params ...float64) Gate {
	if len(qubits) != k.NumQubits() {
		panic(fmt.Sprintf("circuit: %s expects %d qubits, got %d", k, k.NumQubits(), len(qubits)))
	}
	if len(params) != k.NumParams() {
		panic(fmt.Sprintf("circuit: %s expects %d params, got %d", k, k.NumParams(), len(params)))
	}
	return Gate{Kind: k, Qubits: append([]int(nil), qubits...), Params: append([]float64(nil), params...)}
}

// String renders the gate in QASM-ish syntax.
func (g Gate) String() string {
	var b strings.Builder
	b.WriteString(g.Kind.String())
	if len(g.Params) > 0 {
		b.WriteByte('(')
		for i, p := range g.Params {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%g", p)
		}
		b.WriteByte(')')
	}
	b.WriteByte(' ')
	for i, q := range g.Qubits {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "q[%d]", q)
	}
	return b.String()
}

// Circuit is an ordered list of gates over NumQubits qubits.
type Circuit struct {
	Name      string
	NumQubits int
	Gates     []Gate
}

// New returns an empty circuit.
func New(name string, numQubits int) *Circuit {
	return &Circuit{Name: name, NumQubits: numQubits}
}

// Append adds a gate built with NewGate.
func (c *Circuit) Append(k Kind, qubits []int, params ...float64) {
	c.Gates = append(c.Gates, NewGate(k, qubits, params...))
}

// Validate checks qubit indices, arities, and parameter counts.
func (c *Circuit) Validate() error {
	if c.NumQubits <= 0 {
		return fmt.Errorf("circuit %q: non-positive qubit count %d", c.Name, c.NumQubits)
	}
	for i, g := range c.Gates {
		if len(g.Qubits) != g.Kind.NumQubits() {
			return fmt.Errorf("circuit %q gate %d (%s): wrong arity %d", c.Name, i, g.Kind, len(g.Qubits))
		}
		if len(g.Params) != g.Kind.NumParams() {
			return fmt.Errorf("circuit %q gate %d (%s): wrong param count %d", c.Name, i, g.Kind, len(g.Params))
		}
		for k, q := range g.Qubits {
			if q < 0 || q >= c.NumQubits {
				return fmt.Errorf("circuit %q gate %d (%s): qubit %d out of range [0,%d)", c.Name, i, g.Kind, q, c.NumQubits)
			}
			if slices.Contains(g.Qubits[:k], q) {
				return fmt.Errorf("circuit %q gate %d (%s): duplicate qubit %d", c.Name, i, g.Kind, q)
			}
		}
	}
	return nil
}

// Clone deep-copies the circuit.
func (c *Circuit) Clone() *Circuit {
	out := &Circuit{Name: c.Name, NumQubits: c.NumQubits, Gates: make([]Gate, len(c.Gates))}
	for i, g := range c.Gates {
		out.Gates[i] = Gate{
			Kind:   g.Kind,
			Qubits: append([]int(nil), g.Qubits...),
			Params: append([]float64(nil), g.Params...),
		}
	}
	return out
}
