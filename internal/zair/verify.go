package zair

import (
	"fmt"
	"math"
	"sort"
)

// Verifier replays a ZAIR program against an architecture-provided position
// resolver and checks the physical invariants the hardware imposes:
//
//   - the init instruction places each qubit in a distinct trap;
//   - every rearrangement job picks qubits up from where they actually are
//     and drops them into empty traps;
//   - within one machine-level Move, AOD rows and columns never cross and
//     coincident tones stay coincident (the §VI compatibility constraints);
//   - jobs on the same AOD never overlap in time, and jobs moving the same
//     qubit respect qubit dependencies (Fig. 7b);
//   - trap dependencies hold: a job dropping into a trap begins its drop
//     only after the job vacating that trap has picked up (Fig. 7a).
//
// Together with Program.Validate (the init lists every qubit once, and a job
// keeps each qubit's identity from pickup to drop) these checks imply that
// after every instruction each qubit occupies exactly one trap and no trap
// holds two qubits: a pickup must name the qubit's actual trap, and a drop
// must land in an empty one.
//
// Verify is used by the compiler's tests as an end-to-end safety net and is
// exported for downstream users who generate or transform ZAIR programs.
type Verifier struct {
	Resolve PosResolver
	// Tol is the coordinate comparison tolerance in µm (default 1e-6).
	Tol float64
}

// Verify checks the program and returns the first violation found.
func (v *Verifier) Verify(p *Program) error {
	if err := p.Validate(); err != nil {
		return err
	}
	tol := v.Tol
	if tol <= 0 {
		tol = 1e-6
	}

	rp := NewReplay(p)
	occ := map[[3]int]int{} // (A,R,C) → qubit
	key := func(l QLoc) [3]int { return [3]int{l.A, l.R, l.C} }

	for _, l := range p.Instructions[0].(Init).Locs {
		if prev, taken := occ[key(l)]; taken {
			return fmt.Errorf("zair: init places qubits %d and %d in the same trap %v", prev, l.Q, key(l))
		}
		occ[key(l)] = l.Q
	}

	type window struct{ begin, end float64 }
	aodBusy := map[int][]window{}   // AOD → job windows
	qubitBusy := map[int][]window{} // qubit → movement windows
	// For trap dependencies we track, per trap, the pickup time of the job
	// that vacated it and the drop time of the job that filled it.
	for idx, inst := range p.Instructions[1:] {
		job, ok := inst.(RearrangeJob)
		if !ok {
			continue
		}
		where := fmt.Sprintf("instruction %d (rearrangeJob on AOD %d)", idx+1, job.AODID)

		// AOD exclusivity: jobs on one AOD must not overlap.
		for _, w := range aodBusy[job.AODID] {
			if job.BeginTime < w.end-1e-9 && w.begin < job.EndTime-1e-9 {
				return fmt.Errorf("zair: %s overlaps another job on the same AOD [%.2f,%.2f] vs [%.2f,%.2f]",
					where, job.BeginTime, job.EndTime, w.begin, w.end)
			}
		}
		aodBusy[job.AODID] = append(aodBusy[job.AODID], window{job.BeginTime, job.EndTime})

		// Qubit dependencies: no overlapping movements of the same qubit.
		for _, q := range job.Qubits() {
			for _, w := range qubitBusy[q] {
				if job.BeginTime < w.end-1e-9 && w.begin < job.EndTime-1e-9 {
					return fmt.Errorf("zair: %s moves qubit %d while another job holds it", where, q)
				}
			}
			qubitBusy[q] = append(qubitBusy[q], window{job.BeginTime, job.EndTime})
		}

		// Pickup consistency and trap updates.
		for r := range job.BeginLocs {
			for k := range job.BeginLocs[r] {
				b := job.BeginLocs[r][k]
				if b.Q < 0 || b.Q >= len(rp.Pos) {
					return fmt.Errorf("zair: %s picks up unknown qubit %d", where, b.Q)
				}
				if cur := rp.Pos[b.Q]; cur != b {
					return fmt.Errorf("zair: %s picks qubit %d from %v but it is at %v", where, b.Q, b, cur)
				}
				delete(occ, key(b))
			}
		}
		for r := range job.EndLocs {
			for k := range job.EndLocs[r] {
				e := job.EndLocs[r][k]
				if prev, taken := occ[key(e)]; taken {
					return fmt.Errorf("zair: %s drops qubit %d into trap %v occupied by qubit %d",
						where, e.Q, key(e), prev)
				}
				occ[key(e)] = e.Q
			}
		}
		rp.Move(job)

		// Machine-level move instructions: tones must not cross.
		for mi, m := range job.Insts {
			mv, ok := m.(Move)
			if !ok {
				continue
			}
			if err := checkToneOrder(mv.RowYBegin, mv.RowYEnd, tol); err != nil {
				return fmt.Errorf("zair: %s machine inst %d rows: %w", where, mi, err)
			}
			if err := checkToneOrder(mv.ColXBegin, mv.ColXEnd, tol); err != nil {
				return fmt.Errorf("zair: %s machine inst %d cols: %w", where, mi, err)
			}
		}

		// Physical coordinates must resolve if a resolver is provided.
		if v.Resolve != nil {
			for r := range job.BeginLocs {
				for k := range job.BeginLocs[r] {
					b, e := job.BeginLocs[r][k], job.EndLocs[r][k]
					if _, err := v.Resolve(b.A, b.R, b.C); err != nil {
						return fmt.Errorf("zair: %s: begin loc %v: %w", where, b, err)
					}
					if _, err := v.Resolve(e.A, e.R, e.C); err != nil {
						return fmt.Errorf("zair: %s: end loc %v: %w", where, e, err)
					}
				}
			}
		}
	}
	return nil
}

// checkToneOrder verifies that tone coordinates preserve their relative
// order from begin to end (AOD rows/columns cannot cross) and coincident
// tones stay coincident.
func checkToneOrder(begin, end []float64, tol float64) error {
	if len(begin) != len(end) {
		return fmt.Errorf("begin/end tone count mismatch (%d vs %d)", len(begin), len(end))
	}
	idx := make([]int, len(begin))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return begin[idx[a]] < begin[idx[b]] })
	for k := 0; k+1 < len(idx); k++ {
		i, j := idx[k], idx[k+1]
		db := begin[j] - begin[i]
		de := end[j] - end[i]
		switch {
		case math.Abs(db) <= tol && math.Abs(de) > tol:
			return fmt.Errorf("coincident tones diverge (%g → %g)", db, de)
		case db > tol && de < -tol:
			return fmt.Errorf("tones cross (begin Δ=%g, end Δ=%g)", db, de)
		}
	}
	return nil
}
