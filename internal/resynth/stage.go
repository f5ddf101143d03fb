package resynth

import (
	"fmt"

	"zac/internal/circuit"
)

// Schedule performs ASAP scheduling of a {CZ,U3} circuit into alternating
// stages (paper Fig. 4): each Rydberg stage holds CZ gates on disjoint qubit
// pairs (one global Rydberg exposure), preceded by a 1Q stage holding the U3
// gates that must run before it. Dependency order is preserved. Every stage
// is a window of one gate array, sized by a counting pass.
func Schedule(c *circuit.Circuit) (*circuit.Staged, error) {
	// ASAP level per CZ gate: a CZ goes to Rydberg stage t where t is one
	// more than the largest stage of any earlier CZ sharing a qubit. U3 gates
	// attach to the 1Q stage immediately before the next CZ on their qubit
	// (or the trailing stage). Slot 2t of the count holds the 1Q stage
	// before Rydberg stage t, slot 2t+1 Rydberg stage t.
	stageOfQubit := make([]int, c.NumQubits) // next available Rydberg stage per qubit
	slot := make([]int, len(c.Gates))
	var count []int
	for i, g := range c.Gates {
		switch g.Kind {
		case circuit.U3:
			slot[i] = 2 * stageOfQubit[g.Qubits[0]]
		case circuit.CZ, circuit.CCZ:
			t := 0
			for _, q := range g.Qubits {
				t = max(t, stageOfQubit[q])
			}
			for _, q := range g.Qubits {
				stageOfQubit[q] = t + 1
			}
			slot[i] = 2*t + 1
		default:
			return nil, fmt.Errorf("resynth: Schedule expects {CZ,CCZ,U3}, found %s at %d", g.Kind, i)
		}
		for len(count) <= slot[i] {
			count = append(count, 0)
		}
		count[slot[i]]++
	}

	// Turn the counts into window offsets, then drop each gate into its
	// window in circuit order.
	offset := make([]int, len(count))
	stages := 0
	for k, n := range count {
		if k > 0 {
			offset[k] = offset[k-1] + count[k-1]
		}
		if n > 0 {
			stages++
		}
	}
	gates := make([]circuit.Gate, len(c.Gates))
	fill := append([]int(nil), offset...)
	for i, g := range c.Gates {
		gates[fill[slot[i]]] = g
		fill[slot[i]]++
	}
	s := &circuit.Staged{Name: c.Name, NumQubits: c.NumQubits, Stages: make([]circuit.Stage, 0, stages)}
	for k, n := range count {
		if n == 0 {
			continue
		}
		kind := circuit.OneQStage
		if k%2 == 1 {
			kind = circuit.RydbergStage
		}
		lo, hi := offset[k], offset[k]+n
		s.Stages = append(s.Stages, circuit.Stage{Kind: kind, Gates: gates[lo:hi:hi]})
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// Preprocess runs the full pipeline: decompose → 1Q-optimize → ASAP stage.
// This is the entry point the compiler front end uses.
func Preprocess(c *circuit.Circuit) (*circuit.Staged, error) {
	return preprocess(c, nil)
}

// PreprocessNativeCCZ preprocesses for architectures whose Rydberg sites
// have three traps (§III): CCZ/CCX gates map to a single native CCZ instead
// of the 6-CZ decomposition.
func PreprocessNativeCCZ(c *circuit.Circuit) (*circuit.Staged, error) {
	return preprocess(c, map[circuit.Kind]bool{circuit.CCZ: true})
}

func preprocess(c *circuit.Circuit, keep map[circuit.Kind]bool) (*circuit.Staged, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	dec, err := DecomposeKeep(c, keep)
	if err != nil {
		return nil, err
	}
	opt, err := Optimize1Q(dec)
	if err != nil {
		return nil, err
	}
	return Schedule(opt)
}
