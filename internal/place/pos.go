// Package place implements ZAC's reuse-aware placement (paper §V): the
// simulated-annealing initial qubit placement (§V-A), qubit-reuse
// identification via maximum bipartite matching (§V-B1), gate placement via
// minimum-weight full matching over candidate Rydberg sites with lookahead
// (§V-B2), and non-reuse dynamic qubit placement back to storage (§V-B3).
package place

import (
	"math"
	"slices"

	"zac/internal/arch"
	"zac/internal/geom"
)

// Pos is the location of a qubit at a point in the compiled timeline: either
// a storage trap or one slot of a Rydberg site in an entanglement zone.
type Pos struct {
	InStorage bool
	Trap      arch.TrapRef // valid when InStorage
	Site      arch.SiteRef // valid when !InStorage
	Slot      int          // trap slot within the site (0 = left, 1 = right)
}

// StoragePos wraps a trap reference.
func StoragePos(t arch.TrapRef) Pos { return Pos{InStorage: true, Trap: t} }

// SitePos wraps a site slot.
func SitePos(s arch.SiteRef, slot int) Pos { return Pos{Site: s, Slot: slot} }

// Point resolves the physical coordinates of the position.
func (p Pos) Point(a *arch.Architecture) geom.Point {
	if p.InStorage {
		return a.TrapPos(p.Trap)
	}
	return a.SiteTrapPos(p.Site, p.Slot)
}

// SameLocation reports whether two positions are the same physical trap.
func (p Pos) SameLocation(q Pos) bool {
	if p.InStorage != q.InStorage {
		return false
	}
	if p.InStorage {
		return p.Trap == q.Trap
	}
	return p.Site == q.Site && p.Slot == q.Slot
}

// Move is one qubit relocation between two positions.
type Move struct {
	Qubit    int
	From, To Pos
}

// moveCost is the paper's movement-duration surrogate: √distance (Eq. 1
// applies the square root because movement duration ∝ √d).
func moveCost(a *arch.Architecture, from, to geom.Point) float64 {
	return math.Sqrt(from.Dist(to))
}

// gateCost implements Eq. 1, generalized to k-qubit gates (the spec's
// multi-trap Rydberg sites, §III): qubits sharing an SLM row are picked up
// by one AOD row and move in parallel (max of their √distances); distinct
// rows move sequentially (costs add). For two qubits this is exactly Eq. 1.
// Rows are accumulated in first-appearance order (no map), which keeps the
// sum deterministic and the hot path allocation-free.
func gateCost(a *arch.Architecture, site geom.Point, qubits ...geom.Point) float64 {
	if len(qubits) == 2 {
		return gateCost2(a, site, qubits[0], qubits[1])
	}
	ys := make([]float64, 0, 8)
	maxes := make([]float64, 0, 8)
	for _, p := range qubits {
		c := moveCost(a, p, site)
		if i := slices.Index(ys, p.Y); i >= 0 {
			maxes[i] = max(maxes[i], c)
		} else {
			ys = append(ys, p.Y)
			maxes = append(maxes, c)
		}
	}
	total := 0.0
	for _, c := range maxes {
		total += c
	}
	return total
}

// gateCost2 is gateCost specialized to the two-qubit CZ case the placement
// hot loops evaluate millions of times: no variadic slice, no row map.
func gateCost2(a *arch.Architecture, site, p1, p2 geom.Point) float64 {
	c1 := moveCost(a, p1, site)
	c2 := moveCost(a, p2, site)
	if p1.Y == p2.Y {
		return max(c1, c2)
	}
	return c1 + c2
}

// centroid returns the mean of the points.
func centroid(pts []geom.Point) geom.Point {
	var c geom.Point
	for _, p := range pts {
		c.X += p.X
		c.Y += p.Y
	}
	n := float64(len(pts))
	return geom.Point{X: c.X / n, Y: c.Y / n}
}

// nearSiteForQubits generalizes ω_near to k qubits: the middle site of the
// per-qubit nearest sites when they share a zone, else the site nearest the
// centroid.
func nearSiteForQubits(a *arch.Architecture, pts []geom.Point) arch.SiteRef {
	if len(pts) == 2 {
		return nearSiteForGate(a, pts[0], pts[1])
	}
	refs := make([]arch.SiteRef, len(pts))
	sameZone := true
	for i, p := range pts {
		refs[i] = a.NearestSite(p)
		if refs[i].Zone != refs[0].Zone {
			sameZone = false
		}
	}
	if sameZone {
		r, c := 0, 0
		for _, s := range refs {
			r += s.Row
			c += s.Col
		}
		return arch.SiteRef{Zone: refs[0].Zone, Row: r / len(refs), Col: c / len(refs)}
	}
	return a.NearestSite(centroid(pts))
}

// nearSiteForGate picks ω_near for a gate (paper §V-A): the middle site
// between the nearest sites of the two target qubits. When the nearest sites
// live in different entanglement zones, the site nearer to the pair's
// midpoint wins.
func nearSiteForGate(a *arch.Architecture, p1, p2 geom.Point) arch.SiteRef {
	return nearSiteFromNearest(a, a.NearestSite(p1), a.NearestSite(p2), p1, p2)
}

// nearSiteFromNearest is nearSiteForGate with the per-qubit NearestSite
// lookups already resolved — the SA state caches them per trap ordinal so
// the annealing loop skips the zone scan entirely.
func nearSiteFromNearest(a *arch.Architecture, s1, s2 arch.SiteRef, p1, p2 geom.Point) arch.SiteRef {
	if s1.Zone == s2.Zone {
		return arch.SiteRef{
			Zone: s1.Zone,
			Row:  (s1.Row + s2.Row) / 2,
			Col:  (s1.Col + s2.Col) / 2,
		}
	}
	mid := geom.Point{X: (p1.X + p2.X) / 2, Y: (p1.Y + p2.Y) / 2}
	if a.SitePos(s1).Dist(mid) <= a.SitePos(s2).Dist(mid) {
		return s1
	}
	return s2
}
