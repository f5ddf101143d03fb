package zair

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"zac/internal/geom"
)

func sampleProgram() *Program {
	return &Program{
		Name:      "bv_n2",
		NumQubits: 2,
		Instructions: []Instruction{
			Init{Locs: []QLoc{{0, 0, 99, 1}, {1, 0, 99, 13}}},
			RearrangeJob{
				AODID:     0,
				BeginLocs: [][]QLoc{{{0, 0, 99, 1}, {1, 0, 99, 13}}},
				EndLocs:   [][]QLoc{{{0, 1, 0, 0}, {1, 2, 0, 0}}},
				Insts: []MachineInst{
					Activate{RowID: []int{0}, RowY: []float64{297}, ColID: []int{0, 1}, ColX: []float64{3, 39}},
					Move{RowID: []int{0}, RowYBegin: []float64{297}, RowYEnd: []float64{307},
						ColID: []int{0, 1}, ColXBegin: []float64{3, 39}, ColXEnd: []float64{35, 37}},
					Deactivate{RowID: []int{0}, ColID: []int{0, 1}},
				},
				BeginTime: 8.75,
				EndTime:   149.16,
			},
			Rydberg{ZoneID: 0, BeginTime: 149.16, EndTime: 149.52},
			OneQGate{Unitary: [3]float64{math.Pi / 2, 0, math.Pi}, Locs: []QLoc{{0, 1, 0, 0}},
				BeginTime: 149.52, EndTime: 201.52},
		},
	}
}

func TestValidate(t *testing.T) {
	p := sampleProgram()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejects(t *testing.T) {
	empty := &Program{NumQubits: 1}
	if empty.Validate() == nil {
		t.Error("empty program accepted")
	}

	noInit := &Program{NumQubits: 1, Instructions: []Instruction{Rydberg{}}}
	if noInit.Validate() == nil {
		t.Error("missing init accepted")
	}

	partial := &Program{NumQubits: 3, Instructions: []Instruction{
		Init{Locs: []QLoc{{0, 0, 0, 0}}},
	}}
	if partial.Validate() == nil {
		t.Error("partial init accepted")
	}

	dup := &Program{NumQubits: 1, Instructions: []Instruction{
		Init{Locs: []QLoc{{0, 0, 0, 0}, {0, 0, 0, 1}}},
	}}
	if dup.Validate() == nil {
		t.Error("duplicate init accepted")
	}

	badTime := sampleProgram()
	badTime.Instructions[2] = Rydberg{BeginTime: 10, EndTime: 5}
	if badTime.Validate() == nil {
		t.Error("negative duration accepted")
	}

	badQubit := sampleProgram()
	badQubit.Instructions = append(badQubit.Instructions, OneQGate{Locs: []QLoc{{Q: badQubit.NumQubits}}})
	if badQubit.Validate() == nil {
		t.Error("1qGate on an out-of-range qubit accepted")
	}

	shapeMismatch := sampleProgram()
	j := shapeMismatch.Instructions[1].(RearrangeJob)
	j.EndLocs = [][]QLoc{{{0, 1, 0, 0}}}
	shapeMismatch.Instructions[1] = j
	if shapeMismatch.Validate() == nil {
		t.Error("begin/end shape mismatch accepted")
	}
}

func TestDuration(t *testing.T) {
	p := sampleProgram()
	if d := p.Duration(); math.Abs(d-201.52) > 1e-9 {
		t.Errorf("Duration = %v", d)
	}
}

func TestCountStats(t *testing.T) {
	p := sampleProgram()
	s := p.CountStats()
	if s.Init != 1 || s.OneQGate != 1 || s.Rydberg != 1 || s.RearrangeJobs != 1 {
		t.Errorf("stats: %+v", s)
	}
	if s.MovedQubits != 2 {
		t.Errorf("moved = %d", s.MovedQubits)
	}
	// 3 trivial + 3 machine insts inside the job.
	if s.MachineInsts != 6 {
		t.Errorf("machine insts = %d", s.MachineInsts)
	}
	if p.NumZAIRInstructions() != 4 {
		t.Errorf("zair insts = %d", p.NumZAIRInstructions())
	}
}

func TestJSONRoundTrip(t *testing.T) {
	p := sampleProgram()
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	var back Program
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Name != p.Name || back.NumQubits != p.NumQubits {
		t.Error("header lost")
	}
	if len(back.Instructions) != len(p.Instructions) {
		t.Fatalf("instruction count %d != %d", len(back.Instructions), len(p.Instructions))
	}
	job, ok := back.Instructions[1].(RearrangeJob)
	if !ok {
		t.Fatalf("instruction 1 is %T", back.Instructions[1])
	}
	if job.AODID != 0 || len(job.Insts) != 3 || job.EndTime != 149.16 {
		t.Errorf("job lost content: %+v", job)
	}
	if _, ok := job.Insts[1].(Move); !ok {
		t.Errorf("machine inst 1 is %T", job.Insts[1])
	}
	if err := back.Validate(); err != nil {
		t.Fatal(err)
	}
	// Re-marshal must be stable.
	data2, err := json.Marshal(&back)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(data2) {
		t.Error("marshal not stable across round trip")
	}
}

func TestQLocJSONIsArray(t *testing.T) {
	data, err := json.Marshal(QLoc{3, 1, 0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "[3,1,0,2]" {
		t.Errorf("QLoc json = %s", data)
	}
	var l QLoc
	if err := json.Unmarshal([]byte("[0,0,99,13]"), &l); err != nil {
		t.Fatal(err)
	}
	if l != (QLoc{0, 0, 99, 13}) {
		t.Errorf("QLoc = %+v", l)
	}
}

func TestBuildJobMatchesPaperExample(t *testing.T) {
	// Paper Fig. 19: q0 and q13 move from storage row 99 (y=297) to the
	// entanglement zone (y=307); the whole job spans ≈140.4µs:
	// 15 (pickup) + ~110.4 (move of the longest distance √(32²+10²)) + 15.
	moves := []MoveSpec{
		{Qubit: 0, Begin: QLoc{0, 0, 99, 1}, End: QLoc{0, 1, 0, 0},
			From: geom.Point{X: 3, Y: 297}, To: geom.Point{X: 35, Y: 307}},
		{Qubit: 13, Begin: QLoc{13, 0, 99, 13}, End: QLoc{13, 2, 0, 0},
			From: geom.Point{X: 39, Y: 297}, To: geom.Point{X: 37, Y: 307}},
	}
	job, timing := BuildJob(0, moves, 15, geom.MoveTime)
	if got := timing.Total(); math.Abs(got-140.41) > 1.0 {
		t.Errorf("job duration = %.2f, want ≈140.4", got)
	}
	if job.NumMoved() != 2 {
		t.Errorf("moved = %d", job.NumMoved())
	}
	if len(job.Insts) != 3 {
		t.Fatalf("machine insts = %d, want activate+move+deactivate", len(job.Insts))
	}
	if _, ok := job.Insts[0].(Activate); !ok {
		t.Error("first inst not activate")
	}
	if job.NumMoved() != 2 {
		t.Errorf("moved = %d", job.NumMoved())
	}
	// Single row pickup: one BeginLocs row with both qubits.
	if len(job.BeginLocs) != 1 || len(job.BeginLocs[0]) != 2 {
		t.Errorf("begin locs shape: %v", job.BeginLocs)
	}
}

func TestBuildJobMultiRowPickup(t *testing.T) {
	moves := []MoveSpec{
		{Qubit: 0, From: geom.Point{X: 0, Y: 0}, To: geom.Point{X: 10, Y: 50}},
		{Qubit: 1, From: geom.Point{X: 3, Y: 3}, To: geom.Point{X: 13, Y: 53}},
		{Qubit: 2, From: geom.Point{X: 6, Y: 3}, To: geom.Point{X: 16, Y: 53}},
	}
	job, timing := BuildJob(0, moves, 15, geom.MoveTime)
	// Two distinct begin rows → two activates → pickup 2·15µs + parking.
	if timing.PickupDur < 30 {
		t.Errorf("pickup %v < 30", timing.PickupDur)
	}
	if len(job.BeginLocs) != 2 {
		t.Errorf("rows = %d", len(job.BeginLocs))
	}
	acts := 0
	for _, mi := range job.Insts {
		if _, ok := mi.(Activate); ok {
			acts++
		}
	}
	if acts != 2 {
		t.Errorf("activates = %d", acts)
	}
	if job.NumMoved() != 3 {
		t.Errorf("moved = %d", job.NumMoved())
	}
}

// TestBuildJobSortsInPlaceOwnsNothing checks BuildJob's contract with a
// caller that reuses its move buffer: the moves come back sorted by begin
// (y, x), and overwriting them afterwards leaves the job unchanged.
func TestBuildJobSortsInPlaceOwnsNothing(t *testing.T) {
	moves := []MoveSpec{
		{Qubit: 2, Begin: QLoc{2, 0, 1, 2}, From: geom.Point{X: 6, Y: 3}, To: geom.Point{X: 16, Y: 53}},
		{Qubit: 0, Begin: QLoc{0, 0, 0, 0}, From: geom.Point{X: 0, Y: 0}, To: geom.Point{X: 10, Y: 50}},
		{Qubit: 1, Begin: QLoc{1, 0, 1, 1}, From: geom.Point{X: 3, Y: 3}, To: geom.Point{X: 13, Y: 53}},
	}
	job, _ := BuildJob(0, moves, 15, geom.MoveTime)
	for i, m := range moves {
		if m.Qubit != i {
			t.Fatalf("moves[%d] is qubit %d after BuildJob, want sorted by begin (y, x)", i, m.Qubit)
		}
	}
	before, err := json.Marshal(job)
	if err != nil {
		t.Fatal(err)
	}
	clear(moves)
	after, err := json.Marshal(job)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("job changed when its moves were overwritten:\n%s\n%s", before, after)
	}
}

func TestBuildJobEmpty(t *testing.T) {
	job, timing := BuildJob(1, nil, 15, geom.MoveTime)
	if timing.Total() != 0 || job.NumMoved() != 0 {
		t.Error("empty job should be zero")
	}
}
