package circuit

import "fmt"

// StageKind distinguishes the two stage types of the preprocessed program
// (paper Fig. 4): stages of parallel single-qubit gates and Rydberg stages of
// parallel two-qubit CZ gates.
type StageKind int

const (
	// OneQStage holds U3 gates on disjoint qubits.
	OneQStage StageKind = iota
	// RydbergStage holds CZ gates on disjoint qubit pairs; all gates in the
	// stage are executed by a single global Rydberg exposure.
	RydbergStage
)

func (k StageKind) String() string {
	if k == OneQStage {
		return "1qGate"
	}
	return "rydberg"
}

// Stage is one layer of the preprocessed circuit.
type Stage struct {
	Kind  StageKind
	Gates []Gate
}

// Staged is the output of preprocessing: a {CZ,U3} circuit partitioned into
// alternating stages such that each qubit is involved in at most one gate per
// stage.
type Staged struct {
	Name      string
	NumQubits int
	Stages    []Stage
}

// RydbergStages returns the indices of the Rydberg stages in order.
func (s *Staged) RydbergStages() []int {
	var idx []int
	for i, st := range s.Stages {
		if st.Kind == RydbergStage {
			idx = append(idx, i)
		}
	}
	return idx
}

// NumRydbergStages counts Rydberg stages.
func (s *Staged) NumRydbergStages() int { return len(s.RydbergStages()) }

// GateCounts returns the total number of U3 and CZ gates across stages.
func (s *Staged) GateCounts() (oneQ, twoQ int) {
	for _, st := range s.Stages {
		if st.Kind == OneQStage {
			oneQ += len(st.Gates)
		} else {
			twoQ += len(st.Gates)
		}
	}
	return oneQ, twoQ
}

// Validate checks the stage structure: kinds match contents, qubits are
// disjoint within each stage, and indices are in range.
func (s *Staged) Validate() error {
	seen := make([]int, max(s.NumQubits, 0)) // qubit → 1 + last stage using it
	for i, st := range s.Stages {
		for _, g := range st.Gates {
			switch st.Kind {
			case OneQStage:
				if g.Kind != U3 {
					return fmt.Errorf("staged %q stage %d: non-U3 gate %s in 1q stage", s.Name, i, g.Kind)
				}
			case RydbergStage:
				// CZ is the standard entangling gate; CCZ is allowed for
				// architectures with three-trap Rydberg sites (§III).
				if g.Kind != CZ && g.Kind != CCZ {
					return fmt.Errorf("staged %q stage %d: non-entangling gate %s in Rydberg stage", s.Name, i, g.Kind)
				}
			}
			for _, q := range g.Qubits {
				if q < 0 || q >= s.NumQubits {
					return fmt.Errorf("staged %q stage %d: qubit %d out of range", s.Name, i, q)
				}
				if seen[q] == i+1 {
					return fmt.Errorf("staged %q stage %d: qubit %d used twice in one stage", s.Name, i, q)
				}
				seen[q] = i + 1
			}
		}
	}
	return nil
}

// Flatten converts the staged program back to a flat circuit (stage order).
func (s *Staged) Flatten() *Circuit {
	c := New(s.Name, s.NumQubits)
	for _, st := range s.Stages {
		c.Gates = append(c.Gates, st.Gates...)
	}
	return c
}
