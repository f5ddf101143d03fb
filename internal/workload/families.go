package workload

import (
	"fmt"

	"zac/internal/bench"
	"zac/internal/circuit"
	"zac/internal/ftqc"
)

// The built-in families. Each is registered at init time, mirroring the
// compiler registry; external packages can Register additional families.
// Every size-like parameter carries a finite Max: specs arrive from
// untrusted surfaces (the zac-serve "workload" field), so a ~50-byte spec
// must never be able to request an effectively unbounded circuit. Only
// seed is unbounded — any value is equally cheap. Per-parameter caps do
// not bound products (n×depth), so every family additionally checks its
// closed-form gate estimate against MaxSpecGates before allocating
// anything.
func init() {
	Register(cliffordT{})
	Register(rbMirror{})
	Register(shuffle{})
	Register(qaoa{})
	Register(ising{})
	Register(hiqp{})
}

// cliffordT generates unstructured random Clifford+T circuits: the workload
// class of fault-tolerant compilation studies, where T density controls the
// magic-state cost. Unlike bench.RandomClifford it includes the non-Clifford
// T/T† layer and is reproducible across toolchains.
type cliffordT struct{}

func (cliffordT) Family() string   { return "clifford" }
func (cliffordT) Describe() string { return "random Clifford+T circuit (unstructured stress input)" }

func (cliffordT) Params() []Param {
	return []Param{
		{Name: "n", Default: 16, Min: 2, Max: 2048, FuzzMin: 2, FuzzMax: 24, Desc: "qubits"},
		{Name: "gates", Default: 120, Min: 1, Max: 200000, FuzzMin: 8, FuzzMax: 300, Desc: "gate count"},
		{Name: "t", Default: 15, Min: 0, Max: 100, FuzzMin: 0, FuzzMax: 40, Desc: "T/T† percentage"},
		{Name: "seed", Default: 1, Min: 0, Max: 0, FuzzMin: 0, FuzzMax: 1 << 30, Desc: "PRNG seed"},
	}
}

// MaxSpecGates bounds the gate count any single spec may request — the
// product guard behind the per-parameter Max caps. ~260k gates keeps the
// worst-case circuit in the tens of megabytes, a size one compile-semaphore
// slot can hold without letting a tiny request exhaust the process.
const MaxSpecGates = 1 << 18

// checkGateBudget rejects a spec whose closed-form gate estimate exceeds
// MaxSpecGates, before any gate is allocated.
func checkGateBudget(family string, estimate int64) error {
	if estimate > MaxSpecGates {
		return fmt.Errorf("%s: spec requests ~%d gates, budget %d", family, estimate, int64(MaxSpecGates))
	}
	return nil
}

// newCircuit returns an empty circuit with room for estimate gates, the
// closed-form count checkGateBudget accepted, so appending them never
// regrows the gate slice.
func newCircuit(name string, numQubits int, estimate int64) *circuit.Circuit {
	c := circuit.New(name, numQubits)
	c.Gates = make([]circuit.Gate, 0, estimate)
	return c
}

func (cliffordT) Generate(v Values) (*circuit.Circuit, error) {
	n, gates, tpct := int(v["n"]), int(v["gates"]), int(v["t"])
	if err := checkGateBudget("clifford", v["gates"]); err != nil {
		return nil, err
	}
	r := NewRNG(v["seed"])
	c := newCircuit("clifford", n, v["gates"])
	oneQ := []circuit.Kind{circuit.H, circuit.S, circuit.Sdg, circuit.X, circuit.Y, circuit.Z}
	for i := 0; i < gates; i++ {
		switch {
		case r.Intn(100) < tpct:
			k := circuit.T
			if r.Intn(2) == 1 {
				k = circuit.Tdg
			}
			c.Append(k, []int{r.Intn(n)})
		case r.Intn(3) == 0: // one third of the Clifford draw is entangling
			k := circuit.CX
			if r.Intn(2) == 1 {
				k = circuit.CZ
			}
			// Two distinct qubits in O(1) — a Perm(n) here would make
			// generation O(n·gates), a real cost at serve-facing sizes.
			a := r.Intn(n)
			b := r.Intn(n - 1)
			if b >= a {
				b++
			}
			c.Append(k, []int{a, b})
		default:
			c.Append(oneQ[r.Intn(len(oneQ))], []int{r.Intn(n)})
		}
	}
	return c, nil
}

// rbMirror generates randomized-benchmarking-style mirror stress sequences:
// depth layers of random single-qubit Cliffords interleaved with random CZ
// matchings, followed by the exact inverse sequence. The whole circuit
// composes to the identity, so the final state is |0…0⟩ — an invariant the
// fuzzer and the family's tests check by simulation.
type rbMirror struct{}

func (rbMirror) Family() string { return "rb" }
func (rbMirror) Describe() string {
	return "randomized-benchmarking mirror sequence (composes to identity)"
}

func (rbMirror) Params() []Param {
	return []Param{
		{Name: "n", Default: 16, Min: 1, Max: 2048, FuzzMin: 2, FuzzMax: 24, Desc: "qubits"},
		{Name: "depth", Default: 12, Min: 1, Max: 2048, FuzzMin: 1, FuzzMax: 60, Desc: "forward layers (total 2×depth)"},
		{Name: "seed", Default: 1, Min: 0, Max: 0, FuzzMin: 0, FuzzMax: 1 << 30, Desc: "PRNG seed"},
	}
}

// rbGates is the 1Q alphabet; rbInverse maps each entry to its inverse.
var rbGates = []circuit.Kind{circuit.H, circuit.X, circuit.Y, circuit.Z, circuit.S, circuit.Sdg, circuit.T, circuit.Tdg}

var rbInverse = map[circuit.Kind]circuit.Kind{
	circuit.H: circuit.H, circuit.X: circuit.X, circuit.Y: circuit.Y, circuit.Z: circuit.Z,
	circuit.S: circuit.Sdg, circuit.Sdg: circuit.S, circuit.T: circuit.Tdg, circuit.Tdg: circuit.T,
}

func (rbMirror) Generate(v Values) (*circuit.Circuit, error) {
	n, depth := int(v["n"]), int(v["depth"])
	estimate := 2 * v["depth"] * (v["n"] + v["n"]/2)
	if err := checkGateBudget("rb", estimate); err != nil {
		return nil, err
	}
	r := NewRNG(v["seed"])
	type layer struct {
		oneQ  []circuit.Kind // per qubit
		pairs [][2]int       // disjoint CZ matching
	}
	layers := make([]layer, depth)
	for l := range layers {
		layers[l].oneQ = make([]circuit.Kind, n)
		for q := 0; q < n; q++ {
			layers[l].oneQ[q] = rbGates[r.Intn(len(rbGates))]
		}
		p := r.Perm(n)
		for i := 0; i+1 < n; i += 2 {
			layers[l].pairs = append(layers[l].pairs, [2]int{p[i], p[i+1]})
		}
	}
	c := newCircuit("rb", n, estimate)
	for _, l := range layers {
		for q, k := range l.oneQ {
			c.Append(k, []int{q})
		}
		for _, pr := range l.pairs {
			c.Append(circuit.CZ, pr[:])
		}
	}
	// Mirror: CZ matchings are self-inverse; 1Q layers invert gate-wise.
	for li := depth - 1; li >= 0; li-- {
		l := layers[li]
		for i := len(l.pairs) - 1; i >= 0; i-- {
			c.Append(circuit.CZ, l.pairs[i][:])
		}
		for q, k := range l.oneQ {
			c.Append(rbInverse[k], []int{q})
		}
	}
	return c, nil
}

// shuffle generates movement-adversarial circuits: every Rydberg layer pairs
// qubits by a fresh random matching, so almost every qubit changes partner
// every stage and the placement/scheduling passes are forced into maximal
// rearrangement traffic — the opposite extreme of the suite's local-chain
// workloads. H layers between matchings keep resynthesis from merging
// adjacent CZ stages.
type shuffle struct{}

func (shuffle) Family() string   { return "shuffle" }
func (shuffle) Describe() string { return "movement-adversarial random matchings (placement stress)" }

func (shuffle) Params() []Param {
	return []Param{
		{Name: "n", Default: 32, Min: 2, Max: 2048, FuzzMin: 4, FuzzMax: 48, Desc: "qubits"},
		{Name: "depth", Default: 10, Min: 1, Max: 2048, FuzzMin: 1, FuzzMax: 40, Desc: "matching layers"},
		{Name: "seed", Default: 1, Min: 0, Max: 0, FuzzMin: 0, FuzzMax: 1 << 30, Desc: "PRNG seed"},
	}
}

func (shuffle) Generate(v Values) (*circuit.Circuit, error) {
	n, depth := int(v["n"]), int(v["depth"])
	estimate := v["depth"] * (v["n"] + v["n"]/2)
	if err := checkGateBudget("shuffle", estimate); err != nil {
		return nil, err
	}
	r := NewRNG(v["seed"])
	c := newCircuit("shuffle", n, estimate)
	for l := 0; l < depth; l++ {
		for q := 0; q < n; q++ {
			c.Append(circuit.H, []int{q})
		}
		p := r.Perm(n)
		for i := 0; i+1 < n; i += 2 {
			c.Append(circuit.CZ, []int{p[i], p[i+1]})
		}
	}
	return c, nil
}

// qaoa generates depth-p QAOA circuits on seeded random 3-regular graphs at
// arbitrary width — the parameterized counterpart of the fixed
// bench.ExtraAll instance, with a toolchain-stable PRNG.
type qaoa struct{}

func (qaoa) Family() string   { return "qaoa" }
func (qaoa) Describe() string { return "QAOA on a random 3-regular graph (width/depth parameterized)" }

func (qaoa) Params() []Param {
	return []Param{
		{Name: "n", Default: 32, Min: 4, Max: 2048, FuzzMin: 4, FuzzMax: 48, Desc: "vertices (rounded up to even)"},
		{Name: "p", Default: 2, Min: 1, Max: 128, FuzzMin: 1, FuzzMax: 6, Desc: "QAOA rounds"},
		{Name: "seed", Default: 1, Min: 0, Max: 0, FuzzMin: 0, FuzzMax: 1 << 30, Desc: "PRNG seed"},
	}
}

// Normalize rounds odd vertex counts up to even (3-regular graphs need an
// even order) before canonicalization, so qaoa:n=9 and qaoa:n=10 are one
// spec, one cache entry, and the canonical string states the real width.
func (qaoa) Normalize(v Values) {
	if v["n"]%2 != 0 {
		v["n"]++
	}
}

func (qaoa) Generate(v Values) (*circuit.Circuit, error) {
	n, p := int(v["n"]), int(v["p"])
	estimate := int64(n) + v["p"]*int64(n+3*n/2)
	if err := checkGateBudget("qaoa", estimate); err != nil {
		return nil, err
	}
	r := NewRNG(v["seed"])
	edges := random3Regular(n, r)
	c := newCircuit("qaoa", n, estimate)
	for q := 0; q < n; q++ {
		c.Append(circuit.H, []int{q})
	}
	for round := 0; round < p; round++ {
		gamma := 0.3 + 0.1*float64(round)
		beta := 0.7 - 0.1*float64(round)
		for _, e := range edges {
			c.Append(circuit.RZZ, []int{e[0], e[1]}, 2*gamma)
		}
		for q := 0; q < n; q++ {
			c.Append(circuit.RX, []int{q}, 2*beta)
		}
	}
	return c, nil
}

// random3Regular samples a 3-regular simple graph as the union of three
// disjoint perfect matchings, retrying on collisions. After maxTries the
// sampler falls back to the circulant ring-plus-diameters graph, which is
// 3-regular for every even n — so generation always terminates.
func random3Regular(n int, r *RNG) [][2]int {
	const maxTries = 200
	for try := 0; try < maxTries; try++ {
		seen := map[[2]int]bool{}
		var edges [][2]int
		ok := true
		for m := 0; m < 3 && ok; m++ {
			perm := r.Perm(n)
			for i := 0; i+1 < n; i += 2 {
				a, b := perm[i], perm[i+1]
				if a > b {
					a, b = b, a
				}
				k := [2]int{a, b}
				if seen[k] {
					ok = false
					break
				}
				seen[k] = true
				edges = append(edges, k)
			}
		}
		if ok {
			return edges
		}
	}
	var edges [][2]int
	for i := 0; i < n; i++ {
		edges = append(edges, [2]int{i, (i + 1) % n})
	}
	for i := 0; i < n/2; i++ {
		edges = append(edges, [2]int{i, i + n/2})
	}
	return edges
}

// ising generates 1D transverse-field Ising Trotter circuits at arbitrary
// width and layer count, delegating to the deterministic bench generator
// (the fixed suite pins n=42/98 at one layer).
type ising struct{}

func (ising) Family() string   { return "ising" }
func (ising) Describe() string { return "1D transverse-field Ising Trotterization (chain locality)" }

func (ising) Params() []Param {
	return []Param{
		{Name: "n", Default: 42, Min: 2, Max: 2048, FuzzMin: 4, FuzzMax: 64, Desc: "chain sites"},
		{Name: "layers", Default: 1, Min: 1, Max: 512, FuzzMin: 1, FuzzMax: 6, Desc: "Trotter layers"},
	}
}

func (ising) Generate(v Values) (*circuit.Circuit, error) {
	if err := checkGateBudget("ising", v["n"]+v["layers"]*2*v["n"]); err != nil {
		return nil, err
	}
	return bench.Ising(int(v["n"]), int(v["layers"])), nil
}

// hiqp generates deeper FTQC workloads beyond the paper's single-pass hIQP:
// the block-level hypercube IQP circuit of internal/ftqc (each [[8,3,2]]
// block is one compiler qubit) repeated for `rounds` passes, so logical
// routing is stressed well past §VIII's one traversal. Block count is
// parameterized as log2 so every spec is a valid power of two.
type hiqp struct{}

func (hiqp) Family() string { return "hiqp" }
func (hiqp) Describe() string {
	return "multi-round hypercube IQP on [[8,3,2]] blocks (FTQC, block-level)"
}

func (hiqp) Params() []Param {
	return []Param{
		{Name: "logblocks", Default: 4, Min: 1, Max: 10, FuzzMin: 1, FuzzMax: 6, Desc: "log2 of the block count"},
		{Name: "rounds", Default: 1, Min: 1, Max: 64, FuzzMin: 1, FuzzMax: 3, Desc: "hypercube passes"},
	}
}

func (hiqp) Generate(v Values) (*circuit.Circuit, error) {
	blocks := 1 << uint(v["logblocks"])
	rounds := int(v["rounds"])
	// One pass: (log2(blocks)+1) in-block layers of `blocks` U3s plus
	// log2(blocks) CZ layers of blocks/2 gates.
	perPass := (v["logblocks"]+1)*int64(blocks) + v["logblocks"]*int64(blocks)/2
	estimate := v["rounds"] * perPass
	if err := checkGateBudget("hiqp", estimate); err != nil {
		return nil, err
	}
	spec := ftqc.HIQPSpec{NumBlocks: blocks}
	staged, err := spec.BlockCircuit()
	if err != nil {
		return nil, err
	}
	pass := staged.Flatten()
	c := newCircuit("hiqp", blocks, estimate)
	for round := 0; round < rounds; round++ {
		c.Gates = append(c.Gates, pass.Clone().Gates...)
	}
	return c, nil
}
