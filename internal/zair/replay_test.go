package zair

import (
	"fmt"
	"testing"
)

// twoZoneZoneOf: SLM arrays 1 and 2 form entanglement zone 0, arrays 3 and 4
// zone 1; array 0 is storage.
func twoZoneZoneOf(slmID int) (int, bool) {
	switch slmID {
	case 1, 2:
		return 0, true
	case 3, 4:
		return 1, true
	}
	return 0, false
}

func TestReplayPulseGroupsSites(t *testing.T) {
	p := &Program{
		Name: "pulse", NumQubits: 6,
		Instructions: []Instruction{
			Init{Locs: []QLoc{
				{0, 2, 0, 0}, // zone 0, site (0,0), second array
				{1, 0, 0, 0}, // storage
				{2, 1, 0, 1}, // zone 0, site (0,1), alone
				{3, 1, 0, 0}, // zone 0, site (0,0), first array
				{4, 3, 0, 0}, // zone 1
				{5, 0, 0, 1}, // storage
			}},
			RearrangeJob{
				BeginLocs: [][]QLoc{{{5, 0, 0, 1}}},
				EndLocs:   [][]QLoc{{{5, 2, 0, 1}}}, // joins qubit 2's site
			},
		},
	}
	rp := NewReplay(p)
	pulse := func(zone int) string {
		var got []string
		rp.Pulse(zone, twoZoneZoneOf, func(qs []int) { got = append(got, fmt.Sprint(qs)) })
		return fmt.Sprint(got)
	}
	if got, want := pulse(0), "[[3 0] [2]]"; got != want {
		t.Errorf("zone 0 before the job: sites %s, want %s", got, want)
	}
	if got, want := pulse(1), "[[4]]"; got != want {
		t.Errorf("zone 1: sites %s, want %s", got, want)
	}
	rp.Move(p.Instructions[1].(RearrangeJob))
	if got, want := pulse(0), "[[3 0] [2 5]]"; got != want {
		t.Errorf("zone 0 after the job: sites %s, want %s", got, want)
	}
	if allocs := testing.AllocsPerRun(10, func() {
		rp.Pulse(0, twoZoneZoneOf, func([]int) {})
	}); allocs != 0 {
		t.Errorf("Pulse allocates %v times per call, want 0", allocs)
	}
}
