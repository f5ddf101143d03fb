// Package fidelity implements the paper's fidelity and duration model
// (§VII-B): the total circuit fidelity is the product of per-operation terms
//
//	f = f1^g1 · f2^g2 · fexc^Nexc · ftran^Ntran · Πq (1 − tq/T2)
//
// where g1/g2 count 1Q/2Q gates, Nexc counts idle qubits excited by the
// Rydberg laser, Ntran counts atom transfers, and tq is the idle time of
// qubit q under a linear decoherence model. StatsOf takes those counts from
// a compiled ZAIR program.
package fidelity

import (
	"math"

	"zac/internal/arch"
	"zac/internal/zair"
)

// Params holds the per-operation fidelities, durations and coherence time
// of a platform (Table I rows).
type Params struct {
	F1    float64 // single-qubit gate fidelity
	F2    float64 // two-qubit gate fidelity
	FExc  float64 // idle-qubit Rydberg excitation fidelity (neutral atoms)
	FTran float64 // atom-transfer fidelity (neutral atoms)

	T1Q   float64 // single-qubit gate duration, µs
	T2Q   float64 // two-qubit gate duration, µs
	TTran float64 // atom-transfer duration, µs

	T2 float64 // coherence time, µs
}

// NeutralAtom returns the Table I neutral-atom parameter set [4], [5].
func NeutralAtom() Params {
	return Params{
		F1: 0.9997, F2: 0.995, FExc: 0.9975, FTran: 0.999,
		T1Q: 52, T2Q: 0.36, TTran: 15,
		T2: 1.5e6,
	}
}

// SCHeron returns the Table I superconducting Heron (ibm_torino) set [1].
func SCHeron() Params {
	return Params{
		F1: 0.9997, F2: 0.999,
		T1Q: 0.025, T2Q: 0.068,
		T2: 311,
	}
}

// SCGrid returns the Table I superconducting grid (sycamore-style) set [13].
func SCGrid() Params {
	return Params{
		F1: 0.9997, F2: 0.999,
		T1Q: 0.025, T2Q: 0.042,
		T2: 89,
	}
}

// Stats aggregates the error-relevant event counts of a compiled circuit.
type Stats struct {
	OneQGates int // g1
	TwoQGates int // g2
	Excited   int // Nexc: idle qubits ever hit by a Rydberg exposure
	Transfers int // Ntran: tweezer-to-tweezer atom transfers

	Duration float64   // total circuit duration, µs
	Busy     []float64 // per-qubit busy time (gates + transfers + movement), µs
}

// StatsOf derives the fidelity model's event counts (§VII-B) from a program
// alone, replaying it on a. Each 1qGate location is one 1Q gate. At a
// Rydberg pulse, a site holding two or more atoms is one entangling gate
// and a lone atom in the pulsed zone is an excited idle atom. Each atom a
// job carries makes two transfers. Busy time accrues per qubit in
// instruction order: a.Times' 1Q-gate and Rydberg times for the gates it
// joins, and the job's span for each job that carries it.
func StatsOf(a *arch.Architecture, p *zair.Program) Stats {
	st := Stats{Duration: p.Duration(), Busy: make([]float64, p.NumQubits)}
	rp := zair.NewReplay(p)
	for _, inst := range p.Instructions {
		switch v := inst.(type) {
		case zair.OneQGate:
			st.OneQGates += len(v.Locs)
			for _, l := range v.Locs {
				st.Busy[l.Q] += a.Times.OneQGate
			}
		case zair.Rydberg:
			rp.Pulse(v.ZoneID, a.EntanglementZoneOf, func(qs []int) {
				if len(qs) == 1 {
					st.Excited++
					return
				}
				st.TwoQGates++
				for _, q := range qs {
					st.Busy[q] += a.Times.Rydberg
				}
			})
		case zair.RearrangeJob:
			dur := v.EndTime - v.BeginTime
			for _, row := range v.BeginLocs {
				for _, l := range row {
					st.Busy[l.Q] += dur
					st.Transfers += 2
				}
			}
			rp.Move(v)
		}
	}
	return st
}

// Breakdown is the per-term fidelity decomposition reported in the paper's
// Fig. 9 and Table II.
type Breakdown struct {
	OneQ     float64 // f1^g1
	TwoQ     float64 // f2^g2
	Excite   float64 // fexc^Nexc
	Transfer float64 // ftran^Ntran
	Decohere float64 // Πq (1 − tq/T2)
	Total    float64
}

// TwoQCombined returns the paper's "2Q gate" breakdown column, which folds
// the excitation term into the gate term (Fig. 9 caption).
func (b Breakdown) TwoQCombined() float64 { return b.TwoQ * b.Excite }

// Compute evaluates the fidelity model for the given platform and circuit
// statistics.
func Compute(p Params, s Stats) Breakdown {
	b := Breakdown{
		OneQ:     math.Pow(p.F1, float64(s.OneQGates)),
		TwoQ:     math.Pow(p.F2, float64(s.TwoQGates)),
		Excite:   1,
		Transfer: 1,
		Decohere: 1,
	}
	if p.FExc > 0 && s.Excited > 0 {
		b.Excite = math.Pow(p.FExc, float64(s.Excited))
	}
	if p.FTran > 0 && s.Transfers > 0 {
		b.Transfer = math.Pow(p.FTran, float64(s.Transfers))
	}
	for _, busy := range s.Busy {
		idle := s.Duration - busy
		if idle < 0 {
			idle = 0
		}
		term := 1 - idle/p.T2
		if term < 0 {
			term = 0
		}
		b.Decohere *= term
	}
	b.Total = b.OneQ * b.TwoQ * b.Excite * b.Transfer * b.Decohere
	return b
}

// GeoMean returns the geometric mean of xs (the paper's headline summary
// statistic); zero and negative values are clamped to a tiny floor so a
// single zero-fidelity circuit does not erase the mean entirely.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	logSum := 0.0
	for _, x := range xs {
		if x < 1e-300 {
			x = 1e-300
		}
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(xs)))
}
