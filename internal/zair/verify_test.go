package zair

import (
	"strings"
	"testing"
)

func validTwoJobProgram() *Program {
	return &Program{
		Name: "p", NumQubits: 2,
		Instructions: []Instruction{
			Init{Locs: []QLoc{{0, 0, 0, 0}, {1, 0, 0, 1}}},
			RearrangeJob{
				AODID:     0,
				BeginLocs: [][]QLoc{{{0, 0, 0, 0}}},
				EndLocs:   [][]QLoc{{{0, 1, 0, 0}}},
				BeginTime: 0, EndTime: 30,
			},
			RearrangeJob{
				AODID:     0,
				BeginLocs: [][]QLoc{{{1, 0, 0, 1}}},
				EndLocs:   [][]QLoc{{{1, 2, 0, 0}}},
				BeginTime: 30, EndTime: 60,
			},
		},
	}
}

func TestVerifyValid(t *testing.T) {
	v := &Verifier{}
	if err := v.Verify(validTwoJobProgram()); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyStalePickup(t *testing.T) {
	p := validTwoJobProgram()
	j := p.Instructions[2].(RearrangeJob)
	j.BeginLocs = [][]QLoc{{{1, 0, 0, 5}}} // wrong source
	p.Instructions[2] = j
	v := &Verifier{}
	err := v.Verify(p)
	if err == nil || !strings.Contains(err.Error(), "picks qubit") {
		t.Fatalf("stale pickup not caught: %v", err)
	}
}

func TestVerifyOccupiedDrop(t *testing.T) {
	p := validTwoJobProgram()
	j := p.Instructions[2].(RearrangeJob)
	j.EndLocs = [][]QLoc{{{1, 1, 0, 0}}} // qubit 0 already dropped there
	p.Instructions[2] = j
	v := &Verifier{}
	err := v.Verify(p)
	if err == nil || !strings.Contains(err.Error(), "occupied") {
		t.Fatalf("occupied drop not caught: %v", err)
	}
}

func TestVerifyAODOverlap(t *testing.T) {
	p := validTwoJobProgram()
	j := p.Instructions[2].(RearrangeJob)
	j.BeginTime, j.EndTime = 10, 40 // overlaps the first job on AOD 0
	p.Instructions[2] = j
	v := &Verifier{}
	err := v.Verify(p)
	if err == nil || !strings.Contains(err.Error(), "overlaps") {
		t.Fatalf("AOD overlap not caught: %v", err)
	}
}

func TestVerifyDifferentAODsMayOverlap(t *testing.T) {
	p := validTwoJobProgram()
	j := p.Instructions[2].(RearrangeJob)
	j.AODID = 1
	j.BeginTime, j.EndTime = 10, 40
	p.Instructions[2] = j
	v := &Verifier{}
	if err := v.Verify(p); err != nil {
		t.Fatalf("independent AODs should be allowed to overlap: %v", err)
	}
}

func TestVerifyQubitDependency(t *testing.T) {
	p := &Program{
		Name: "q", NumQubits: 1,
		Instructions: []Instruction{
			Init{Locs: []QLoc{{0, 0, 0, 0}}},
			RearrangeJob{AODID: 0, BeginLocs: [][]QLoc{{{0, 0, 0, 0}}},
				EndLocs: [][]QLoc{{{0, 0, 0, 1}}}, BeginTime: 0, EndTime: 30},
			RearrangeJob{AODID: 1, BeginLocs: [][]QLoc{{{0, 0, 0, 1}}},
				EndLocs: [][]QLoc{{{0, 0, 0, 2}}}, BeginTime: 20, EndTime: 50},
		},
	}
	v := &Verifier{}
	err := v.Verify(p)
	if err == nil || !strings.Contains(err.Error(), "while another job holds it") {
		t.Fatalf("qubit dependency violation not caught: %v", err)
	}
}

func TestVerifyCrossingTones(t *testing.T) {
	p := &Program{
		Name: "x", NumQubits: 2,
		Instructions: []Instruction{
			Init{Locs: []QLoc{{0, 0, 0, 0}, {1, 0, 0, 1}}},
			RearrangeJob{
				AODID:     0,
				BeginLocs: [][]QLoc{{{0, 0, 0, 0}, {1, 0, 0, 1}}},
				EndLocs:   [][]QLoc{{{0, 1, 0, 1}, {1, 1, 0, 0}}},
				Insts: []MachineInst{
					Move{ColID: []int{0, 1},
						ColXBegin: []float64{0, 3},
						ColXEnd:   []float64{10, 5}}, // col 0 passes col 1
				},
				BeginTime: 0, EndTime: 30,
			},
		},
	}
	v := &Verifier{}
	err := v.Verify(p)
	if err == nil || !strings.Contains(err.Error(), "cross") {
		t.Fatalf("crossing tones not caught: %v", err)
	}
}

func TestVerifyCoincidentTonesDiverge(t *testing.T) {
	if err := checkToneOrder([]float64{1, 1}, []float64{1, 5}, 1e-6); err == nil {
		t.Fatal("diverging coincident tones not caught")
	}
	if err := checkToneOrder([]float64{1, 1}, []float64{4, 4}, 1e-6); err != nil {
		t.Fatalf("coincident tones moving together rejected: %v", err)
	}
	if err := checkToneOrder([]float64{1, 2}, []float64{5}, 1e-6); err == nil {
		t.Fatal("length mismatch not caught")
	}
}

// FinalPositions replays every rearrangement job of p and returns each
// qubit's final trap.
func FinalPositions(p *Program) []QLoc {
	rp := NewReplay(p)
	for _, inst := range p.Instructions {
		if job, ok := inst.(RearrangeJob); ok {
			rp.Move(job)
		}
	}
	return rp.Pos
}

func TestFinalPositions(t *testing.T) {
	p := validTwoJobProgram()
	fin := FinalPositions(p)
	if fin[0] != (QLoc{0, 1, 0, 0}) || fin[1] != (QLoc{1, 2, 0, 0}) {
		t.Fatalf("final positions: %v", fin)
	}
}

func TestFinalPositionsEmpty(t *testing.T) {
	if got := FinalPositions(&Program{}); len(got) != 0 {
		t.Fatal("empty program should yield no positions")
	}
}
