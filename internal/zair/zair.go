// Package zair implements ZAIR, the paper's intermediate representation for
// zoned architectures (§IX, Fig. 17): init, 1qGate, rydberg, and
// rearrangeJob instructions, plus the machine-level activate/move/deactivate
// instructions inside each rearrangement job, with the JSON encoding of the
// paper's artifact (Fig. 19).
package zair

import (
	"encoding/json"
	"fmt"

	"zac/internal/geom"
)

// QLoc locates qubit Q at row R, column C of SLM array A (a 4-tuple
// (q, a, r, c), paper §IX).
type QLoc struct {
	Q, A, R, C int
}

// MarshalJSON encodes a QLoc as the artifact's 4-element array.
func (l QLoc) MarshalJSON() ([]byte, error) {
	return json.Marshal([4]int{l.Q, l.A, l.R, l.C})
}

// UnmarshalJSON decodes the 4-element array form.
func (l *QLoc) UnmarshalJSON(data []byte) error {
	var arr [4]int
	if err := json.Unmarshal(data, &arr); err != nil {
		return err
	}
	l.Q, l.A, l.R, l.C = arr[0], arr[1], arr[2], arr[3]
	return nil
}

// Instruction is a ZAIR instruction: Init, OneQGate, Rydberg or RearrangeJob.
type Instruction interface {
	// Type returns the artifact's type tag.
	Type() string
}

// Init declares the initial location of every qubit; it appears exactly once
// at the beginning of a program.
type Init struct {
	Locs []QLoc `json:"init_locs"`
}

// Type implements Instruction.
func (Init) Type() string { return "init" }

// OneQGate applies the U3 unitary (θ,φ,λ) to each listed qubit location.
// Gates in one instruction form one 1Q stage; the paper's conservative
// timing model executes them sequentially (§VII-B).
type OneQGate struct {
	Unitary   [3]float64 `json:"unitary"`
	Locs      []QLoc     `json:"locs"`
	BeginTime float64    `json:"begin_time"`
	EndTime   float64    `json:"end_time"`
}

// Type implements Instruction.
func (OneQGate) Type() string { return "1qGate" }

// Rydberg turns on the Rydberg laser over entanglement zone ZoneID,
// executing one Rydberg stage: every pair of qubits sharing a Rydberg site
// undergoes a CZ.
type Rydberg struct {
	ZoneID    int     `json:"zone_id"`
	BeginTime float64 `json:"begin_time"`
	EndTime   float64 `json:"end_time"`
}

// Type implements Instruction.
func (Rydberg) Type() string { return "rydberg" }

// MachineInst is a machine-level AOD instruction inside a rearrangement job.
type MachineInst interface {
	MachineType() string
}

// Activate turns on AOD rows at RowY and columns at ColX, picking up the
// atoms at the intersections that coincide with occupied SLM traps.
type Activate struct {
	RowID []int     `json:"row_id"`
	RowY  []float64 `json:"row_y"`
	ColID []int     `json:"col_id"`
	ColX  []float64 `json:"col_x"`
}

// MachineType implements MachineInst.
func (Activate) MachineType() string { return "activate" }

// Deactivate turns off AOD rows and columns, dropping atoms into the SLM
// traps beneath them.
type Deactivate struct {
	RowID []int `json:"row_id"`
	ColID []int `json:"col_id"`
}

// MachineType implements MachineInst.
func (Deactivate) MachineType() string { return "deactivate" }

// Move continuously sweeps the active rows from RowYBegin to RowYEnd and
// columns from ColXBegin to ColXEnd.
type Move struct {
	RowID     []int     `json:"row_id"`
	RowYBegin []float64 `json:"row_y_begin"`
	RowYEnd   []float64 `json:"row_y_end"`
	ColID     []int     `json:"col_id"`
	ColXBegin []float64 `json:"col_x_begin"`
	ColXEnd   []float64 `json:"col_x_end"`
}

// MachineType implements MachineInst.
func (Move) MachineType() string { return "move" }

// RearrangeJob moves a set of qubits with one AOD: pick them up at
// BeginLocs, move them, and drop them at EndLocs. BeginLocs/EndLocs are
// grouped per AOD row (paper §IX). A job occupies its AOD for the whole
// [BeginTime, EndTime] span, which is what makes multi-AOD load balancing
// natural (§VI).
type RearrangeJob struct {
	AODID     int           `json:"aod_id"`
	BeginLocs [][]QLoc      `json:"begin_locs"`
	EndLocs   [][]QLoc      `json:"end_locs"`
	Insts     []MachineInst `json:"insts"`
	BeginTime float64       `json:"begin_time"`
	EndTime   float64       `json:"end_time"`
}

// Type implements Instruction.
func (RearrangeJob) Type() string { return "rearrangeJob" }

// Qubits returns the qubits moved by the job.
func (j RearrangeJob) Qubits() []int {
	var qs []int
	for _, row := range j.BeginLocs {
		for _, l := range row {
			qs = append(qs, l.Q)
		}
	}
	return qs
}

// NumMoved counts moved qubits.
func (j RearrangeJob) NumMoved() int {
	n := 0
	for _, row := range j.BeginLocs {
		n += len(row)
	}
	return n
}

// Program is a complete ZAIR program.
type Program struct {
	Name         string
	NumQubits    int
	Instructions []Instruction
}

// Duration returns the end time of the last timed instruction.
func (p *Program) Duration() float64 {
	end := 0.0
	for _, in := range p.Instructions {
		switch v := in.(type) {
		case OneQGate:
			if v.EndTime > end {
				end = v.EndTime
			}
		case Rydberg:
			if v.EndTime > end {
				end = v.EndTime
			}
		case RearrangeJob:
			if v.EndTime > end {
				end = v.EndTime
			}
		}
	}
	return end
}

// Stats summarizes instruction counts (the §IX ZAIR-density metrics).
type Stats struct {
	Init, OneQGate, Rydberg, RearrangeJobs int
	MachineInsts                           int
	MovedQubits                            int
}

// CountStats tallies instruction statistics for the program.
func (p *Program) CountStats() Stats {
	var s Stats
	for _, in := range p.Instructions {
		switch v := in.(type) {
		case Init:
			s.Init++
			s.MachineInsts++
		case OneQGate:
			s.OneQGate++
			s.MachineInsts++
		case Rydberg:
			s.Rydberg++
			s.MachineInsts++
		case RearrangeJob:
			s.RearrangeJobs++
			s.MachineInsts += len(v.Insts)
			s.MovedQubits += v.NumMoved()
		}
	}
	return s
}

// NumZAIRInstructions counts top-level ZAIR instructions.
func (p *Program) NumZAIRInstructions() int { return len(p.Instructions) }

// Validate performs structural checks: exactly one leading Init covering
// every qubit, timed instructions with EndTime ≥ BeginTime, 1qGate
// locations naming qubits in range, and rearrange jobs whose begin/end
// shapes match.
func (p *Program) Validate() error {
	if len(p.Instructions) == 0 {
		return fmt.Errorf("zair: empty program")
	}
	init, ok := p.Instructions[0].(Init)
	if !ok {
		return fmt.Errorf("zair: first instruction must be init, got %s", p.Instructions[0].Type())
	}
	seen := map[int]bool{}
	for _, l := range init.Locs {
		if l.Q < 0 || l.Q >= p.NumQubits {
			return fmt.Errorf("zair: init qubit %d out of range", l.Q)
		}
		if seen[l.Q] {
			return fmt.Errorf("zair: init lists qubit %d twice", l.Q)
		}
		seen[l.Q] = true
	}
	if len(seen) != p.NumQubits {
		return fmt.Errorf("zair: init covers %d of %d qubits", len(seen), p.NumQubits)
	}
	for i, in := range p.Instructions[1:] {
		switch v := in.(type) {
		case Init:
			return fmt.Errorf("zair: instruction %d: second init", i+1)
		case OneQGate:
			if v.EndTime < v.BeginTime {
				return fmt.Errorf("zair: instruction %d: negative duration", i+1)
			}
			for _, l := range v.Locs {
				if l.Q < 0 || l.Q >= p.NumQubits {
					return fmt.Errorf("zair: instruction %d: 1qGate qubit %d out of range", i+1, l.Q)
				}
			}
		case Rydberg:
			if v.EndTime < v.BeginTime {
				return fmt.Errorf("zair: instruction %d: negative duration", i+1)
			}
		case RearrangeJob:
			if v.EndTime < v.BeginTime {
				return fmt.Errorf("zair: instruction %d: negative duration", i+1)
			}
			if len(v.BeginLocs) != len(v.EndLocs) {
				return fmt.Errorf("zair: instruction %d: begin/end row count mismatch", i+1)
			}
			for r := range v.BeginLocs {
				if len(v.BeginLocs[r]) != len(v.EndLocs[r]) {
					return fmt.Errorf("zair: instruction %d row %d: begin/end length mismatch", i+1, r)
				}
				for k := range v.BeginLocs[r] {
					if v.BeginLocs[r][k].Q != v.EndLocs[r][k].Q {
						return fmt.Errorf("zair: instruction %d row %d: qubit identity changes mid-job", i+1, r)
					}
				}
			}
		}
	}
	return nil
}

// PosResolver maps an (SLM array id, row, col) location to physical
// coordinates; the arch package's architectures implement this shape via
// adapter functions in the compiler.
type PosResolver func(slmID, row, col int) (geom.Point, error)
