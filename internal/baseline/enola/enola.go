// Package enola reimplements the mechanism of Enola [Tan, Lin & Cong 2024],
// the state-of-the-art compiler for the monolithic neutral-atom architecture
// the paper compares against (§VII-A): entangling gates are scheduled into a
// near-optimal number of Rydberg stages with edge coloring, and qubit
// movements between stages are grouped into parallel rounds with maximal
// independent sets. Because the architecture is monolithic, every Rydberg
// exposure illuminates all qubits: idle qubits accumulate the excitation
// error that dominates Fig. 1c.
package enola

import (
	"fmt"

	"zac/internal/arch"
	"zac/internal/circuit"
	"zac/internal/fidelity"
	"zac/internal/geom"
	"zac/internal/graphalgo"
)

// Result is the evaluation of a circuit compiled for the monolithic
// architecture.
type Result struct {
	Stats            fidelity.Stats
	Breakdown        fidelity.Breakdown
	NumRydbergStages int
	NumMoveRounds    int
	Duration         float64
}

// Compile compiles a preprocessed staged circuit onto the monolithic
// architecture a (built by arch.Monolithic, 10×10 Rydberg sites).
func Compile(staged *circuit.Staged, a *arch.Architecture) (*Result, error) {
	if len(a.Entanglement) == 0 {
		return nil, fmt.Errorf("enola: architecture has no entanglement zone")
	}
	zone := a.Entanglement[0]
	rows, cols := zone.SiteRows(), zone.SiteCols()
	if staged.NumQubits > rows*cols {
		return nil, fmt.Errorf("enola: %d qubits exceed %d sites", staged.NumQubits, rows*cols)
	}

	// Home sites: qubits fill the site grid row-major; the second site slot
	// hosts visiting partners during gates.
	home := make([]arch.SiteRef, staged.NumQubits)
	for q := range home {
		home[q] = arch.SiteRef{Zone: 0, Row: q / cols, Col: q % cols}
	}
	pos := func(q int) geom.Point { return a.SitePos(home[q]) }

	var st fidelity.Stats
	st.Busy = make([]float64, staged.NumQubits)
	clock := 0.0
	res := &Result{}

	for _, stage := range recolorStages(staged) {
		switch stage.Kind {
		case circuit.OneQStage:
			for _, g := range stage.Gates {
				st.OneQGates++
				st.Busy[g.Qubits[0]] += a.Times.OneQGate
				clock += a.Times.OneQGate
			}
		case circuit.RydbergStage:
			res.NumRydbergStages++
			// One qubit of each pair (the higher-index one) travels to its
			// partner's site and back after the exposure; movements are
			// grouped into compatible rounds via MIS.
			var moves []movement
			for _, g := range stage.Gates {
				q1, q2 := g.Qubits[0], g.Qubits[1]
				moves = append(moves, movement{from: pos(q2), to: a.SiteTrapPos(home[q1], 1), q: q2})
			}
			rounds := groupRounds(moves)
			res.NumMoveRounds += 2 * len(rounds) // out and back
			for _, round := range rounds {
				maxD := 0.0
				for _, i := range round {
					if d := moves[i].from.Dist(moves[i].to); d > maxD {
						maxD = d
					}
				}
				dur := 2*a.Times.AtomTransfer + a.MoveTime(maxD)
				for _, i := range round {
					st.Busy[moves[i].q] += 2 * dur // out and back
					st.Transfers += 4              // pickup+drop, twice
				}
				clock += 2 * dur
			}
			// Global Rydberg exposure: every idle qubit is excited.
			st.TwoQGates += len(stage.Gates)
			st.Excited += staged.NumQubits - 2*len(stage.Gates)
			for _, g := range stage.Gates {
				for _, q := range g.Qubits {
					st.Busy[q] += a.Times.Rydberg
				}
			}
			clock += a.Times.Rydberg
		}
	}
	st.Duration = clock
	res.Stats = st
	res.Duration = clock
	res.Breakdown = fidelity.Compute(paramsFrom(a), st)
	return res, nil
}

func paramsFrom(a *arch.Architecture) fidelity.Params {
	return fidelity.Params{
		F1: a.Fidelities.SingleQubit, F2: a.Fidelities.TwoQubit,
		FExc: a.Fidelities.Excitation, FTran: a.Fidelities.AtomTransfer,
		T1Q: a.Times.OneQGate, T2Q: a.Times.Rydberg, TTran: a.Times.AtomTransfer,
		T2: a.T2,
	}
}

// recolorStages applies Enola's edge-coloring scheduling: consecutive
// Rydberg stages with no intervening 1Q stage hold mutually commuting CZ
// gates, so their union can be recolored with Misra–Gries into Δ+1 stages,
// which never exceeds (and often beats) the ASAP layering.
func recolorStages(staged *circuit.Staged) []circuit.Stage {
	var out []circuit.Stage
	var pending []circuit.Gate
	flush := func() {
		if len(pending) == 0 {
			return
		}
		out = append(out, colorIntoStages(staged.NumQubits, pending)...)
		pending = nil
	}
	for _, st := range staged.Stages {
		if st.Kind == circuit.RydbergStage {
			pending = append(pending, st.Gates...)
			continue
		}
		flush()
		out = append(out, st)
	}
	flush()
	return out
}

func colorIntoStages(numQubits int, gates []circuit.Gate) []circuit.Stage {
	edges := make([]graphalgo.Edge, len(gates))
	for i, g := range gates {
		edges[i] = graphalgo.Edge{U: g.Qubits[0], V: g.Qubits[1]}
	}
	colors := graphalgo.MisraGries(numQubits, edges)
	n := graphalgo.NumColors(colors)
	stages := make([]circuit.Stage, n)
	for i := range stages {
		stages[i].Kind = circuit.RydbergStage
	}
	for i, c := range colors {
		stages[c].Gates = append(stages[c].Gates, gates[i])
	}
	// Drop empty stages (possible if coloring skipped a color index).
	var out []circuit.Stage
	for _, s := range stages {
		if len(s.Gates) > 0 {
			out = append(out, s)
		}
	}
	return out
}

// movement is one qubit's travel to a partner site.
type movement struct {
	from, to geom.Point
	q        int
}

// groupRounds partitions movements into AOD-compatible rounds (order
// preservation in both axes) using repeated MIS over the conflict bit
// matrix, as Enola does.
func groupRounds(moves []movement) [][]int {
	n := len(moves)
	words := (n + 63) / 64
	conflict := make([]uint64, n*words)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if !movesCompatible(moves[i].from, moves[i].to, moves[j].from, moves[j].to) {
				conflict[i*words+j/64] |= 1 << (j % 64)
				conflict[j*words+i/64] |= 1 << (i % 64)
			}
		}
	}
	return graphalgo.PartitionIntoIndependentSets(n, conflict)
}

func movesCompatible(a0, a1, b0, b1 geom.Point) bool {
	ok := func(x0, y0, x1, y1 float64) bool {
		switch {
		case x0 < y0:
			return x1 < y1
		case x0 > y0:
			return x1 > y1
		default:
			return x1 == y1
		}
	}
	return ok(a0.X, b0.X, a1.X, b1.X) && ok(a0.Y, b0.Y, a1.Y, b1.Y)
}
