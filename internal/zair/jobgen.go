package zair

import (
	"cmp"
	"slices"

	"zac/internal/geom"
)

// MoveSpec describes one qubit's movement inside a rearrangement job: its
// identity, begin/end SLM locations, and begin/end physical coordinates.
type MoveSpec struct {
	Qubit      int
	Begin, End QLoc
	From, To   geom.Point
}

// JobTiming captures the three phases of a job (paper §VI): picking up all
// qubits (row-by-row activation with optional parking, Fig. 18), one
// parallel move, and dropping all qubits off.
type JobTiming struct {
	PickupDur float64
	MoveDur   float64
	DropDur   float64
}

// Total returns the whole job duration.
func (t JobTiming) Total() float64 { return t.PickupDur + t.MoveDur + t.DropDur }

// BuildJob assembles a RearrangeJob from movement specs: groups moves into
// AOD rows by begin y-coordinate, generates the machine-level
// activate/park/move/deactivate sequence following the OLSQ-DPQA row-by-row
// pickup strategy (§IX, Fig. 18), and computes phase durations.
//
// transferTime is the atom-transfer duration Ttran; moveTime converts a
// distance to a movement duration (architecture-specific).
//
// BuildJob sorts moves in place by begin (y, x), so the caller must own
// them, and cuts the rows from that order. The job shares no memory with
// moves: every slice of it is a window of a few arrays sized from the move
// and row counts.
func BuildJob(aodID int, moves []MoveSpec, transferTime float64, moveTime func(d float64) float64) (RearrangeJob, JobTiming) {
	if len(moves) == 0 {
		return RearrangeJob{AODID: aodID}, JobTiming{}
	}
	// Rows ordered bottom-up; within a row order by x so AOD columns keep
	// their relative order.
	sorted := moves
	slices.SortStableFunc(sorted, func(a, b MoveSpec) int {
		if c := cmp.Compare(a.From.Y, b.From.Y); c != 0 {
			return c
		}
		return cmp.Compare(a.From.X, b.From.X)
	})
	n, rows := len(sorted), 1
	for i := 1; i < n; i++ {
		if sorted[i].From.Y != sorted[i-1].From.Y {
			rows++
		}
	}
	ints := make([]int, 0, 3*(rows+n))
	floats := make([]float64, 0, 3*(rows+n))
	takeInts := func(k int) []int {
		ints = ints[:len(ints)+k]
		return ints[len(ints)-k : len(ints) : len(ints)]
	}
	takeFloats := func(k int) []float64 {
		floats = floats[:len(floats)+k]
		return floats[len(floats)-k : len(floats) : len(floats)]
	}
	begins, ends := make([]QLoc, n), make([]QLoc, n)
	job := RearrangeJob{
		AODID:     aodID,
		BeginLocs: make([][]QLoc, 0, rows),
		EndLocs:   make([][]QLoc, 0, rows),
		Insts:     make([]MachineInst, 0, rows+2),
	}
	var timing JobTiming
	mv := Move{
		RowID: takeInts(rows), RowYBegin: takeFloats(rows), RowYEnd: takeFloats(rows),
		ColID: takeInts(n), ColXBegin: takeFloats(n), ColXEnd: takeFloats(n),
	}
	deact := Deactivate{RowID: takeInts(rows), ColID: takeInts(n)}

	// Pickup: one activate per begin row. Between consecutive row
	// activations a small parking shift may be needed so already-picked
	// qubits do not collide with traps in the next row (Fig. 18c); we model
	// parking as a fixed small shift taking moveTime(parkDist).
	const parkDist = 1.0 // µm: half the minimum AOD separation scale
	maxDist := 0.0
	for lo, ri := 0, 0; lo < n; ri++ {
		hi := lo + 1
		for hi < n && sorted[hi].From.Y == sorted[lo].From.Y {
			hi++
		}
		y := sorted[lo].From.Y
		act := Activate{RowID: takeInts(1), RowY: takeFloats(1), ColID: takeInts(hi - lo), ColX: takeFloats(hi - lo)}
		act.RowID[0], act.RowY[0] = ri, y
		for k, m := range sorted[lo:hi] {
			act.ColID[k] = lo + k
			act.ColX[k] = m.From.X
			if d := m.From.Dist(m.To); d > maxDist {
				maxDist = d
			}
			begins[lo+k], ends[lo+k] = m.Begin, m.End
		}
		job.Insts = append(job.Insts, act)
		job.BeginLocs = append(job.BeginLocs, begins[lo:hi:hi])
		job.EndLocs = append(job.EndLocs, ends[lo:hi:hi])
		timing.PickupDur += transferTime
		if hi < n {
			// Parking shift before the next activation.
			timing.PickupDur += moveTime(parkDist)
		}
		// One parallel move sweeps every active row and column from begin
		// to end, and one deactivate releases everything.
		mv.RowID[ri], mv.RowYBegin[ri], mv.RowYEnd[ri] = ri, y, sorted[lo].To.Y
		deact.RowID[ri] = ri
		lo = hi
	}
	for c, m := range sorted {
		mv.ColID[c], mv.ColXBegin[c], mv.ColXEnd[c] = c, m.From.X, m.To.X
		deact.ColID[c] = c
	}
	job.Insts = append(job.Insts, mv, deact)
	timing.MoveDur = moveTime(maxDist)
	timing.DropDur = transferTime

	return job, timing
}
