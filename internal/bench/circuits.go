// Package bench provides the paper's benchmark suite (§VII, Fig. 8): the 17
// QASMBench circuits, reconstructed as structural generators at the paper's
// qubit counts. The generators reproduce each circuit family's structure —
// the property the evaluation depends on (parallelism, depth, interaction
// topology) — while exact post-transpilation gate counts may differ slightly
// from the paper's Qiskit-produced numbers (recorded here as Paper2Q/Paper1Q;
// see DESIGN.md, "Known deviations from the paper").
package bench

import (
	"fmt"
	"math"

	"zac/internal/circuit"
)

// Benchmark is one suite entry.
type Benchmark struct {
	Name      string
	NumQubits int
	// The (2Q, 1Q) gate counts printed in the paper's Fig. 8 labels.
	Paper2Q, Paper1Q int
	Build            func() *circuit.Circuit
}

// All returns the 17-circuit suite in the paper's Fig. 8 order.
func All() []Benchmark {
	return []Benchmark{
		{"bv_n14", 14, 13, 28, func() *circuit.Circuit { return BV(14, onesString(13)) }},
		{"bv_n19", 19, 18, 38, func() *circuit.Circuit { return BV(19, onesString(18)) }},
		{"bv_n30", 30, 29, 60, func() *circuit.Circuit { return BV(30, onesString(29)) }},
		{"bv_n70", 70, 36, 107, func() *circuit.Circuit { return BV(70, spacedString(69, 36)) }},
		{"cat_n22", 22, 21, 43, func() *circuit.Circuit { return Cat(22) }},
		{"cat_n35", 35, 34, 69, func() *circuit.Circuit { return Cat(35) }},
		{"ghz_n23", 23, 22, 45, func() *circuit.Circuit { return GHZ(23) }},
		{"ghz_n40", 40, 39, 79, func() *circuit.Circuit { return GHZ(40) }},
		{"ghz_n78", 78, 77, 155, func() *circuit.Circuit { return GHZ(78) }},
		{"ising_n42", 42, 82, 144, func() *circuit.Circuit { return Ising(42, 1) }},
		{"ising_n98", 98, 194, 340, func() *circuit.Circuit { return Ising(98, 1) }},
		{"knn_n31", 31, 105, 153, func() *circuit.Circuit { return KNN(31) }},
		{"multiply_n13", 13, 40, 53, func() *circuit.Circuit { return Multiply13() }},
		{"qft_n18", 18, 306, 324, func() *circuit.Circuit { return QFT(18) }},
		{"seca_n11", 11, 80, 100, func() *circuit.Circuit { return SECA11() }},
		{"swap_test_n25", 25, 84, 123, func() *circuit.Circuit { return SwapTest(25) }},
		{"wstate_n27", 27, 52, 105, func() *circuit.Circuit { return WState(27) }},
	}
}

// ByName looks a benchmark up by its Fig. 8 name.
func ByName(name string) (Benchmark, error) {
	for _, b := range All() {
		if b.Name == name {
			return b, nil
		}
	}
	return Benchmark{}, fmt.Errorf("bench: unknown benchmark %q", name)
}

// onesString returns an all-ones BV secret of length n.
func onesString(n int) []bool {
	s := make([]bool, n)
	for i := range s {
		s[i] = true
	}
	return s
}

// spacedString returns a length-n secret with k ones spread evenly, matching
// the sparser oracle of the paper's bv_n70 (36 2Q gates on 70 qubits).
func spacedString(n, k int) []bool {
	s := make([]bool, n)
	for i := 0; i < k; i++ {
		s[i*n/k] = true
	}
	return s
}

// BV builds the Bernstein–Vazirani circuit on n qubits (n−1 data + 1
// ancilla): the oracle applies a CX from data bit i to the ancilla for every
// 1 in the secret string.
func BV(n int, secret []bool) *circuit.Circuit {
	c := circuit.New(fmt.Sprintf("bv_n%d", n), n)
	anc := n - 1
	c.Append(circuit.X, []int{anc})
	for q := 0; q < n; q++ {
		c.Append(circuit.H, []int{q})
	}
	for i, bit := range secret {
		if bit {
			c.Append(circuit.CX, []int{i, anc})
		}
	}
	for q := 0; q < n-1; q++ {
		c.Append(circuit.H, []int{q})
	}
	return c
}

// GHZ builds the linear-chain GHZ state circuit.
func GHZ(n int) *circuit.Circuit {
	c := circuit.New(fmt.Sprintf("ghz_n%d", n), n)
	c.Append(circuit.H, []int{0})
	for i := 0; i < n-1; i++ {
		c.Append(circuit.CX, []int{i, i + 1})
	}
	return c
}

// Cat builds the cat-state circuit (QASMBench's cat uses the same chain
// construction as GHZ).
func Cat(n int) *circuit.Circuit {
	c := GHZ(n)
	c.Name = fmt.Sprintf("cat_n%d", n)
	return c
}

// Ising builds one first-order Trotter layer of the transverse-field Ising
// model on a 1D chain: RZZ on every chain edge plus RX on every site. The
// RZZ gates on even and odd edges form two fully parallel layers — the
// high-parallelism workload of the paper's discussion (§VII-C).
func Ising(n, layers int) *circuit.Circuit {
	c := circuit.New(fmt.Sprintf("ising_n%d", n), n)
	const (
		dt = 0.1
		j  = 1.0
		h  = 0.7
	)
	for q := 0; q < n; q++ {
		c.Append(circuit.H, []int{q})
	}
	for l := 0; l < layers; l++ {
		for start := 0; start <= 1; start++ {
			for i := start; i+1 < n; i += 2 {
				c.Append(circuit.RZZ, []int{i, i + 1}, 2*j*dt)
			}
		}
		for q := 0; q < n; q++ {
			c.Append(circuit.RX, []int{q}, 2*h*dt)
		}
	}
	return c
}

// QFT builds the full quantum Fourier transform with controlled-phase
// rotations (no final swaps, matching the paper's 306 2Q gates at n=18:
// n(n−1)/2 CP gates × 2 CZ each).
func QFT(n int) *circuit.Circuit {
	c := circuit.New(fmt.Sprintf("qft_n%d", n), n)
	for i := 0; i < n; i++ {
		c.Append(circuit.H, []int{i})
		for j := i + 1; j < n; j++ {
			c.Append(circuit.CP, []int{j, i}, math.Pi/math.Pow(2, float64(j-i)))
		}
	}
	return c
}

// SwapTest builds the swap test over (n−1)/2 qubit pairs with one ancilla:
// H(anc), controlled-SWAP per pair, H(anc).
func SwapTest(n int) *circuit.Circuit {
	c := circuit.New(fmt.Sprintf("swap_test_n%d", n), n)
	anc := 0
	pairs := (n - 1) / 2
	// Prepare non-trivial register states.
	for i := 0; i < pairs; i++ {
		c.Append(circuit.RY, []int{1 + i}, 0.3+0.1*float64(i))
		c.Append(circuit.RY, []int{1 + pairs + i}, 0.2+0.05*float64(i))
	}
	c.Append(circuit.H, []int{anc})
	for i := 0; i < pairs; i++ {
		c.Append(circuit.CSWAP, []int{anc, 1 + i, 1 + pairs + i})
	}
	c.Append(circuit.H, []int{anc})
	return c
}

// KNN builds the quantum k-nearest-neighbor kernel circuit, which QASMBench
// implements as a swap test between a test register and a training register
// (15 pairs at n=31).
func KNN(n int) *circuit.Circuit {
	c := SwapTest(n)
	c.Name = fmt.Sprintf("knn_n%d", n)
	return c
}

// WState builds the W-state preparation circuit: a chain of controlled
// rotations distributing amplitude, each followed by a CX.
func WState(n int) *circuit.Circuit {
	c := circuit.New(fmt.Sprintf("wstate_n%d", n), n)
	c.Append(circuit.X, []int{0})
	for i := 0; i < n-1; i++ {
		theta := 2 * math.Acos(math.Sqrt(1/float64(n-i)))
		c.Append(circuit.CRY, []int{i, i + 1}, theta)
		c.Append(circuit.CX, []int{i + 1, i})
	}
	return c
}

// Multiply13 builds the 13-qubit quantum multiplier (QASMBench multiply_n13:
// a 3×3-bit shift-and-add multiplier built from Toffoli partial products and
// CX ripple additions).
func Multiply13() *circuit.Circuit {
	c := circuit.New("multiply_n13", 13)
	// Registers: a[0..2] = 0..2, b[0..2] = 3..5, product p[0..5] = 6..11,
	// carry = 12.
	a := []int{0, 1, 2}
	b := []int{3, 4, 5}
	p := []int{6, 7, 8, 9, 10, 11}
	carry := 12
	// Load inputs.
	c.Append(circuit.X, []int{a[0]})
	c.Append(circuit.X, []int{a[2]})
	c.Append(circuit.X, []int{b[1]})
	// Partial products: p[i+j] ^= a[i]·b[j] with carry propagation.
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			c.Append(circuit.CCX, []int{a[i], b[j], p[i+j]})
		}
		// Ripple a carry after each row.
		c.Append(circuit.CX, []int{p[i], carry})
		c.Append(circuit.CX, []int{carry, p[i+1]})
	}
	return c
}

// SECA11 builds the 11-qubit Shor error-correction ancilla circuit
// (QASMBench seca_n11): two rounds of 3-qubit repetition-code encode /
// error-injection / majority-vote decode across the phase and bit bases,
// using Toffoli gates for the correction step.
func SECA11() *circuit.Circuit {
	c := circuit.New("seca_n11", 11)
	data := 0
	block := func(q1, q2 int) {
		// encode
		c.Append(circuit.CX, []int{data, q1})
		c.Append(circuit.CX, []int{data, q2})
		c.Append(circuit.H, []int{data})
		c.Append(circuit.H, []int{q1})
		c.Append(circuit.H, []int{q2})
		// channel rotation (error model)
		c.Append(circuit.RZ, []int{data}, 0.35)
		c.Append(circuit.RZ, []int{q1}, 0.35)
		c.Append(circuit.RZ, []int{q2}, 0.35)
		// decode + majority vote
		c.Append(circuit.H, []int{data})
		c.Append(circuit.H, []int{q1})
		c.Append(circuit.H, []int{q2})
		c.Append(circuit.CX, []int{data, q1})
		c.Append(circuit.CX, []int{data, q2})
		c.Append(circuit.CCX, []int{q1, q2, data})
	}
	// Two rounds over the five ancilla pairs.
	for round := 0; round < 2; round++ {
		for pair := 0; pair < 5; pair++ {
			block(1+2*pair, 2+2*pair)
		}
	}
	return c
}
