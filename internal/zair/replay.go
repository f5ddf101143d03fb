package zair

import (
	"cmp"
	"slices"
)

// Replay is a program's atom positions as its instructions execute: the
// trap each qubit occupies, in a qubit-indexed slice. Verifier.Verify and
// every stats derivation walk programs through it, so each reader of a
// program agrees on where its atoms are when the laser fires.
type Replay struct {
	Pos   []QLoc // Pos[q] is qubit q's current trap
	atoms []int  // Pulse scratch: the pulsed zone's qubits
}

// ZoneOf maps an SLM array ID to the entanglement zone holding it (the
// index a Rydberg instruction's ZoneID names); ok is false for arrays
// outside every entanglement zone.
type ZoneOf func(slmID int) (zone int, ok bool)

// NewReplay places every qubit at the location the program's init gives
// it. The init must name qubits in [0, NumQubits), as Program.Validate
// checks; qubits it does not list, and those of a program without one,
// start at the zero QLoc.
func NewReplay(p *Program) *Replay {
	r := &Replay{Pos: make([]QLoc, p.NumQubits)}
	if len(p.Instructions) > 0 {
		if init, ok := p.Instructions[0].(Init); ok {
			for _, l := range init.Locs {
				r.Pos[l.Q] = l
			}
		}
	}
	return r
}

// Move lands each qubit the job carries at its end location.
func (r *Replay) Move(j RearrangeJob) {
	for _, row := range j.EndLocs {
		for _, e := range row {
			r.Pos[e.Q] = e
		}
	}
}

// Pulse reports the atoms a Rydberg pulse over zone exposes. A Rydberg site
// is the traps at one (row, col) of the zone's SLM arrays; site is called
// once per occupied site, in ascending (row, col) order, with the qubits it
// holds in ascending SLM order. The slice is reused between calls.
func (r *Replay) Pulse(zone int, zoneOf ZoneOf, site func(qs []int)) {
	atoms := r.atoms[:0]
	for q, l := range r.Pos {
		if z, ok := zoneOf(l.A); ok && z == zone {
			atoms = append(atoms, q)
		}
	}
	slices.SortFunc(atoms, func(x, y int) int {
		a, b := r.Pos[x], r.Pos[y]
		if c := cmp.Compare(a.R, b.R); c != 0 {
			return c
		}
		if c := cmp.Compare(a.C, b.C); c != 0 {
			return c
		}
		return cmp.Compare(a.A, b.A)
	})
	for i := 0; i < len(atoms); {
		l := r.Pos[atoms[i]]
		j := i + 1
		for j < len(atoms) && r.Pos[atoms[j]].R == l.R && r.Pos[atoms[j]].C == l.C {
			j++
		}
		site(atoms[i:j])
		i = j
	}
	r.atoms = atoms
}
