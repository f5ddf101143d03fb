// Package resynth implements the preprocessing step of the compiler (paper
// §IV, Fig. 4): (1) resynthesis of the input circuit into the
// hardware-supported gate set {CZ, U3}; (2) single-qubit gate optimization by
// exact 2×2-unitary accumulation and ZYZ re-extraction; and (3) ASAP
// scheduling of the result into alternating 1Q and Rydberg stages with each
// qubit in at most one gate per stage.
//
// The paper performs this step with Qiskit at optimization level 3; this
// package is the from-scratch substitute (see DESIGN.md, substitution table).
package resynth

import (
	"fmt"
	"math"

	"zac/internal/circuit"
	"zac/internal/linalg"
)

// DecomposeKeep rewrites c using only {CZ, U3} gates plus the multi-qubit
// kinds in keep (currently CCZ, for architectures with three-trap Rydberg
// sites; CCX maps to H-conjugated CCZ). Measure and Barrier gates are
// dropped (the paper's flow compiles unitary circuit bodies; measurement
// happens in the readout zone outside the compiled program). A counting pass sizes the output, so its gate list
// and the qubit and parameter storage of its new gates are allocated once.
func DecomposeKeep(c *circuit.Circuit, keep map[circuit.Kind]bool) (*circuit.Circuit, error) {
	var count gateBuf
	if err := decompose(&count, c, keep); err != nil {
		return nil, err
	}
	out := count.sized(circuit.New(c.Name, c.NumQubits))
	if err := decompose(out, c, keep); err != nil {
		return nil, err
	}
	return out.c, nil
}

// decompose writes the {CZ, U3} rewrite of c to out.
func decompose(out *gateBuf, c *circuit.Circuit, keep map[circuit.Kind]bool) error {
	for i, g := range c.Gates {
		var err error
		switch {
		case keep[g.Kind]:
			out.keep(g)
		case keep[circuit.CCZ] && g.Kind == circuit.CCX:
			// CCX = H(t) · CCZ · H(t)
			h(out, g.Qubits[2])
			out.add(circuit.CCZ, g.Qubits)
			h(out, g.Qubits[2])
		case keep[circuit.CCZ] && g.Kind == circuit.CSWAP:
			// Fredkin via native CCZ: CX(t2,t1) · H(t2)·CCZ·H(t2) · CX(t2,t1)
			ctrl, t1, t2 := g.Qubits[0], g.Qubits[1], g.Qubits[2]
			cx(out, t2, t1)
			h(out, t2)
			out.add(circuit.CCZ, []int{ctrl, t1, t2})
			h(out, t2)
			cx(out, t2, t1)
		default:
			err = emit(out, g)
		}
		if err != nil {
			return fmt.Errorf("resynth: gate %d (%s): %w", i, g.Kind, err)
		}
	}
	return nil
}

// gateBuf appends gates to a circuit, carving each new gate's qubits and
// parameters out of two shared slabs instead of allocating them per gate.
// A gateBuf without a circuit only counts what it is given, so that a
// first pass can size the real one.
type gateBuf struct {
	c                     *circuit.Circuit // nil while counting
	gates, qubits, params int              // totals seen while counting
	qs                    []int
	ps                    []float64
}

// sized returns a buffer writing to c with room for everything b counted.
func (b *gateBuf) sized(c *circuit.Circuit) *gateBuf {
	c.Gates = make([]circuit.Gate, 0, b.gates)
	return &gateBuf{c: c, qs: make([]int, 0, b.qubits), ps: make([]float64, 0, b.params)}
}

// add appends a gate of kind k; its arity is the caller's to get right.
func (b *gateBuf) add(k circuit.Kind, qubits []int, params ...float64) {
	if b.c == nil {
		b.gates++
		b.qubits += len(qubits)
		b.params += len(params)
		return
	}
	g := circuit.Gate{Kind: k}
	n := len(b.qs)
	b.qs = append(b.qs, qubits...)
	g.Qubits = b.qs[n:len(b.qs):len(b.qs)]
	if len(params) > 0 {
		n = len(b.ps)
		b.ps = append(b.ps, params...)
		g.Params = b.ps[n:len(b.ps):len(b.ps)]
	}
	b.c.Gates = append(b.c.Gates, g)
}

// keep appends an input gate as it is, sharing its qubits and parameters.
func (b *gateBuf) keep(g circuit.Gate) {
	if b.c == nil {
		b.gates++
		return
	}
	b.c.Gates = append(b.c.Gates, g)
}

// u3 appends a U3 gate with the given angles.
func u3(out *gateBuf, q int, theta, phi, lambda float64) {
	out.add(circuit.U3, []int{q}, theta, phi, lambda)
}

// cz appends a CZ gate.
func cz(out *gateBuf, a, b int) { out.add(circuit.CZ, []int{a, b}) }

// h emits a Hadamard as U3(π/2, 0, π).
func h(out *gateBuf, q int) { u3(out, q, math.Pi/2, 0, math.Pi) }

// cx emits CNOT(control, target) = H(t)·CZ·H(t).
func cx(out *gateBuf, c, t int) {
	h(out, t)
	cz(out, c, t)
	h(out, t)
}

// rz emits RZ(θ) ~ U3(0, 0, θ) (up to global phase).
func rz(out *gateBuf, q int, theta float64) { u3(out, q, 0, 0, theta) }

// ry emits RY(θ) = U3(θ, 0, 0).
func ry(out *gateBuf, q int, theta float64) { u3(out, q, theta, 0, 0) }

func emit(out *gateBuf, g circuit.Gate) error {
	q := g.Qubits
	switch g.Kind {
	case circuit.U3:
		u3(out, q[0], g.Params[0], g.Params[1], g.Params[2])
	case circuit.CZ:
		cz(out, q[0], q[1])
	case circuit.H:
		h(out, q[0])
	case circuit.X:
		u3(out, q[0], math.Pi, 0, math.Pi)
	case circuit.Y:
		u3(out, q[0], math.Pi, math.Pi/2, math.Pi/2)
	case circuit.Z:
		rz(out, q[0], math.Pi)
	case circuit.S:
		rz(out, q[0], math.Pi/2)
	case circuit.Sdg:
		rz(out, q[0], -math.Pi/2)
	case circuit.T:
		rz(out, q[0], math.Pi/4)
	case circuit.Tdg:
		rz(out, q[0], -math.Pi/4)
	case circuit.ID:
		// no-op
	case circuit.RX:
		u3(out, q[0], g.Params[0], -math.Pi/2, math.Pi/2)
	case circuit.RY:
		ry(out, q[0], g.Params[0])
	case circuit.RZ, circuit.U1:
		rz(out, q[0], g.Params[0])
	case circuit.U2:
		u3(out, q[0], math.Pi/2, g.Params[0], g.Params[1])
	case circuit.CX:
		cx(out, q[0], q[1])
	case circuit.CY:
		// CY = Sdg(t) CX S(t)
		rz(out, q[1], -math.Pi/2)
		cx(out, q[0], q[1])
		rz(out, q[1], math.Pi/2)
	case circuit.SWAP:
		cx(out, q[0], q[1])
		cx(out, q[1], q[0])
		cx(out, q[0], q[1])
	case circuit.CP:
		// CP(λ) = P(λ/2)(c) · CX · P(-λ/2)(t) · CX · P(λ/2)(t), with P ≡ RZ
		// up to global phase.
		l := g.Params[0]
		rz(out, q[0], l/2)
		cx(out, q[0], q[1])
		rz(out, q[1], -l/2)
		cx(out, q[0], q[1])
		rz(out, q[1], l/2)
	case circuit.CRZ:
		l := g.Params[0]
		rz(out, q[1], l/2)
		cx(out, q[0], q[1])
		rz(out, q[1], -l/2)
		cx(out, q[0], q[1])
	case circuit.CRY:
		l := g.Params[0]
		ry(out, q[1], l/2)
		cx(out, q[0], q[1])
		ry(out, q[1], -l/2)
		cx(out, q[0], q[1])
	case circuit.CRX:
		l := g.Params[0]
		// CRX(θ) = RZ(π/2)(t) · CRY... use the standard: H-conjugated CRZ.
		h(out, q[1])
		rz(out, q[1], l/2)
		cx(out, q[0], q[1])
		rz(out, q[1], -l/2)
		cx(out, q[0], q[1])
		h(out, q[1])
	case circuit.RZZ:
		l := g.Params[0]
		cx(out, q[0], q[1])
		rz(out, q[1], l)
		cx(out, q[0], q[1])
	case circuit.RXX:
		l := g.Params[0]
		h(out, q[0])
		h(out, q[1])
		cx(out, q[0], q[1])
		rz(out, q[1], l)
		cx(out, q[0], q[1])
		h(out, q[0])
		h(out, q[1])
	case circuit.CCX:
		// Standard 6-CNOT Toffoli decomposition.
		a, b, t := q[0], q[1], q[2]
		h(out, t)
		cx(out, b, t)
		rz(out, t, -math.Pi/4)
		cx(out, a, t)
		rz(out, t, math.Pi/4)
		cx(out, b, t)
		rz(out, t, -math.Pi/4)
		cx(out, a, t)
		rz(out, b, math.Pi/4)
		rz(out, t, math.Pi/4)
		cx(out, a, b)
		rz(out, a, math.Pi/4)
		rz(out, b, -math.Pi/4)
		cx(out, a, b)
		h(out, t)
	case circuit.CCZ:
		// CCZ = H(t) CCX H(t); inline to avoid double H.
		a, b, t := q[0], q[1], q[2]
		cx(out, b, t)
		rz(out, t, -math.Pi/4)
		cx(out, a, t)
		rz(out, t, math.Pi/4)
		cx(out, b, t)
		rz(out, t, -math.Pi/4)
		cx(out, a, t)
		rz(out, b, math.Pi/4)
		rz(out, t, math.Pi/4)
		cx(out, a, b)
		rz(out, a, math.Pi/4)
		rz(out, b, -math.Pi/4)
		cx(out, a, b)
	case circuit.CSWAP:
		// Fredkin: CX(t2,t1) · CCX(c,t1,t2) · CX(t2,t1)
		cGate, t1, t2 := q[0], q[1], q[2]
		cx(out, t2, t1)
		if err := emit(out, circuit.Gate{Kind: circuit.CCX, Qubits: []int{cGate, t1, t2}}); err != nil {
			return err
		}
		cx(out, t2, t1)
	case circuit.Measure, circuit.Barrier:
		// dropped
	default:
		return fmt.Errorf("unsupported gate kind %v", g.Kind)
	}
	return nil
}

// gateMatrix returns the 2×2 unitary of a 1Q gate kind (input or native).
// Returns an error for multi-qubit or non-unitary kinds.
func gateMatrix(g circuit.Gate) (linalg.Mat2, error) {
	switch g.Kind {
	case circuit.U3:
		return linalg.U3(g.Params[0], g.Params[1], g.Params[2]), nil
	case circuit.H:
		return linalg.H(), nil
	case circuit.X:
		return linalg.X(), nil
	case circuit.Y:
		return linalg.Y(), nil
	case circuit.Z:
		return linalg.Z(), nil
	case circuit.S:
		return linalg.S(), nil
	case circuit.Sdg:
		return linalg.Sdg(), nil
	case circuit.T:
		return linalg.T(), nil
	case circuit.Tdg:
		return linalg.Tdg(), nil
	case circuit.RX:
		return linalg.RX(g.Params[0]), nil
	case circuit.RY:
		return linalg.RY(g.Params[0]), nil
	case circuit.RZ:
		return linalg.RZ(g.Params[0]), nil
	case circuit.U1:
		return linalg.Phase(g.Params[0]), nil
	case circuit.U2:
		return linalg.U3(math.Pi/2, g.Params[0], g.Params[1]), nil
	case circuit.ID:
		return linalg.Identity(), nil
	default:
		return linalg.Mat2{}, fmt.Errorf("resynth: %s has no 1Q matrix", g.Kind)
	}
}
