// Package arch implements the paper's general specification of zoned
// architectures (§III, Fig. 3): AOD arrays, SLM arrays, zones (storage,
// entanglement, readout), and whole architectures, together with the
// geometric queries the compiler needs (trap positions, Rydberg-site
// positions, nearest-site and nearest-trap lookup) and the JSON format of
// the paper's artifact (Fig. 20).
package arch

import (
	"fmt"
	"math"
	"sync/atomic"

	"zac/internal/geom"
)

// SLMArray is a static trap array: Rows×Cols traps with separations SepX,
// SepY (µm) anchored at Offset (bottom-left trap position).
type SLMArray struct {
	ID     int
	SepX   float64
	SepY   float64
	Rows   int
	Cols   int
	Offset geom.Point
}

// TrapPos returns the position of trap (row, col).
func (s SLMArray) TrapPos(row, col int) geom.Point {
	return geom.Point{
		X: s.Offset.X + float64(col)*s.SepX,
		Y: s.Offset.Y + float64(row)*s.SepY,
	}
}

// InRange reports whether (row, col) indexes a real trap.
func (s SLMArray) InRange(row, col int) bool {
	return row >= 0 && row < s.Rows && col >= 0 && col < s.Cols
}

// NearestTrap returns the in-range trap indices closest to p.
func (s SLMArray) NearestTrap(p geom.Point) (row, col int) {
	row = clamp(int(round((p.Y-s.Offset.Y)/s.SepY)), 0, s.Rows-1)
	col = clamp(int(round((p.X-s.Offset.X)/s.SepX)), 0, s.Cols-1)
	return row, col
}

func round(x float64) float64 {
	if x < 0 {
		return float64(int(x - 0.5))
	}
	return float64(int(x + 0.5))
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// AODArray is a mobile trap array generated by an acousto-optic deflector:
// a product of up to MaxRows row tones and MaxCols column tones, with a
// minimum separation MinSep between any two active rows (or columns).
type AODArray struct {
	ID      int
	MinSep  float64
	MaxRows int
	MaxCols int
}

// ZoneKind distinguishes zone roles.
type ZoneKind int

const (
	StorageZone ZoneKind = iota
	EntanglementZone
	ReadoutZone
)

func (k ZoneKind) String() string {
	switch k {
	case StorageZone:
		return "storage"
	case EntanglementZone:
		return "entanglement"
	default:
		return "readout"
	}
}

// Zone is a physical region with boundaries and the SLM arrays it contains.
// In an entanglement zone the SLM arrays come in groups that form Rydberg
// sites: trap k of site (r,c) is trap (r,c) of the zone's k-th SLM array
// (the paper's reference architecture uses two arrays offset by dRyd).
type Zone struct {
	ID     int
	Kind   ZoneKind
	Offset geom.Point
	Dim    geom.Point
	SLMs   []SLMArray
}

// SiteRows and SiteCols give the Rydberg-site grid shape of an entanglement
// zone (the common shape of its SLM arrays).
func (z Zone) SiteRows() int {
	if len(z.SLMs) == 0 {
		return 0
	}
	return z.SLMs[0].Rows
}

// SiteCols returns the number of Rydberg-site columns.
func (z Zone) SiteCols() int {
	if len(z.SLMs) == 0 {
		return 0
	}
	return z.SLMs[0].Cols
}

// SitePos returns the reference position of Rydberg site (r,c): the paper
// uses the left (first-array) trap as the site's reference location.
func (z Zone) SitePos(r, c int) geom.Point {
	return z.SLMs[0].TrapPos(r, c)
}

// SiteTrapPos returns the position of the slot-th trap of site (r,c).
func (z Zone) SiteTrapPos(r, c, slot int) geom.Point {
	return z.SLMs[slot].TrapPos(r, c)
}

// SiteSlots returns the number of traps per Rydberg site (2 in the
// reference architecture; the spec allows more, §III).
func (z Zone) SiteSlots() int { return len(z.SLMs) }

// NearestSite returns the site indices closest to p.
func (z Zone) NearestSite(p geom.Point) (r, c int) {
	if len(z.SLMs) == 0 {
		return 0, 0
	}
	return z.SLMs[0].NearestTrap(p)
}

// OperationTimes are hardware operation durations in µs (Table I / Fig. 20).
type OperationTimes struct {
	Rydberg      float64 // global Rydberg exposure (TRyd = 0.36µs)
	OneQGate     float64 // single-qubit gate (T1q = 52µs, conservative)
	AtomTransfer float64 // tweezer-to-tweezer transfer (Ttran = 15µs)
}

// OperationFidelities are per-operation success probabilities (Table I).
type OperationFidelities struct {
	TwoQubit     float64 // f2 = 0.995
	SingleQubit  float64 // f1 = 0.9997
	AtomTransfer float64 // ftran = 0.999
	Excitation   float64 // fexc = 0.9975: idle qubit hit by the Rydberg laser
}

// Architecture is a complete zoned architecture (paper Fig. 3).
//
// Do not mutate an architecture after its first use. The first compile, or
// the first call of an ordinal or topology method (TrapOrdinal, TrapAt,
// StorageTrapsNearestFirst, ...), memoizes the dense topology tables on the
// value, the first Fingerprint memoizes the fingerprint, and caches key
// compiled results by it; none of them sees a later change. Build a new
// value instead. The zero value and struct
// literals are ready to use, and copies made before first use (as WithAODs
// makes) are independent.
type Architecture struct {
	Name          string
	AODs          []AODArray
	Storage       []Zone
	Entanglement  []Zone
	Readout       []Zone
	Times         OperationTimes
	Fidelities    OperationFidelities
	T2            float64 // coherence time, µs (1.5s = 1.5e6µs for atoms)
	ZoneSep       float64 // minimum separation between zones (dsep = 10µm)
	MovementAccel float64 // µm/µs²; 0 means geom.Accel

	// topology holds the *topology memo (topo.go); empty until first use.
	topology atomic.Value
	// digest holds the *fingerprintMemo (fingerprint.go); empty until the
	// first Fingerprint.
	digest atomic.Value
}

// MoveTime returns the movement duration for distance d µm under the
// architecture's acceleration parameter.
func (a *Architecture) MoveTime(d float64) float64 {
	if a.MovementAccel > 0 {
		if d <= 0 {
			return 0
		}
		return math.Sqrt(d / a.MovementAccel)
	}
	return geom.MoveTime(d)
}

// TotalStorageTraps counts all storage traps across storage zones.
func (a *Architecture) TotalStorageTraps() int {
	n := 0
	for _, z := range a.Storage {
		for _, s := range z.SLMs {
			n += s.Rows * s.Cols
		}
	}
	return n
}

// TotalSites counts all Rydberg sites across entanglement zones.
func (a *Architecture) TotalSites() int {
	n := 0
	for _, z := range a.Entanglement {
		n += z.SiteRows() * z.SiteCols()
	}
	return n
}

// ResolveTrap maps a (SLM id, row, col) trap address to its physical
// position, erroring on addresses no zone exposes. Its signature matches
// zair.PosResolver, so `a.ResolveTrap` plugs straight into the ZAIR
// verifier — the one resolver shared by zairsim and the fuzz harness.
func (a *Architecture) ResolveTrap(slmID, row, col int) (geom.Point, error) {
	for _, zs := range [][]Zone{a.Storage, a.Entanglement} {
		for _, z := range zs {
			for _, s := range z.SLMs {
				if s.ID == slmID && s.InRange(row, col) {
					return s.TrapPos(row, col), nil
				}
			}
		}
	}
	return geom.Point{}, fmt.Errorf("unknown SLM %d trap (%d,%d)", slmID, row, col)
}

// EntanglementZoneOf returns the index in Entanglement of the zone holding
// SLM array slmID; ok is false for arrays outside every entanglement zone.
// Its signature matches zair.ZoneOf, the site lookup of a ZAIR replay.
func (a *Architecture) EntanglementZoneOf(slmID int) (zone int, ok bool) {
	for zi, z := range a.Entanglement {
		for _, s := range z.SLMs {
			if s.ID == slmID {
				return zi, true
			}
		}
	}
	return 0, false
}

// Validate checks structural consistency: non-empty zone lists where needed,
// site arrays with matching shapes, zones within plausible bounds, and
// positive hardware parameters.
func (a *Architecture) Validate() error {
	if len(a.AODs) == 0 {
		return fmt.Errorf("arch %q: at least one AOD array is required", a.Name)
	}
	if len(a.Entanglement) == 0 {
		return fmt.Errorf("arch %q: at least one entanglement zone is required", a.Name)
	}
	for _, z := range a.Entanglement {
		if len(z.SLMs) < 2 {
			return fmt.Errorf("arch %q: entanglement zone %d needs ≥2 SLM arrays to form Rydberg sites", a.Name, z.ID)
		}
		r0, c0 := z.SLMs[0].Rows, z.SLMs[0].Cols
		for _, s := range z.SLMs[1:] {
			if s.Rows != r0 || s.Cols != c0 {
				return fmt.Errorf("arch %q: entanglement zone %d has SLM arrays of mismatched shape", a.Name, z.ID)
			}
		}
	}
	for _, zs := range [][]Zone{a.Storage, a.Entanglement, a.Readout} {
		for _, z := range zs {
			if z.Dim.X <= 0 || z.Dim.Y <= 0 {
				return fmt.Errorf("arch %q: zone %d (%s) has non-positive dimensions", a.Name, z.ID, z.Kind)
			}
			for _, s := range z.SLMs {
				if s.Rows <= 0 || s.Cols <= 0 {
					return fmt.Errorf("arch %q: zone %d SLM %d has non-positive shape", a.Name, z.ID, s.ID)
				}
				if s.SepX <= 0 || s.SepY <= 0 {
					return fmt.Errorf("arch %q: zone %d SLM %d has non-positive separation", a.Name, z.ID, s.ID)
				}
			}
		}
	}
	if a.Times.Rydberg <= 0 || a.Times.OneQGate <= 0 || a.Times.AtomTransfer <= 0 {
		return fmt.Errorf("arch %q: operation durations must be positive", a.Name)
	}
	f := a.Fidelities
	for _, v := range []float64{f.TwoQubit, f.SingleQubit, f.AtomTransfer, f.Excitation} {
		if v <= 0 || v > 1 {
			return fmt.Errorf("arch %q: fidelities must be in (0,1]", a.Name)
		}
	}
	if a.T2 <= 0 {
		return fmt.Errorf("arch %q: T2 must be positive", a.Name)
	}
	return nil
}

// SiteRef identifies a Rydberg site: entanglement zone index (into
// a.Entanglement), row and column.
type SiteRef struct {
	Zone, Row, Col int
}

// SitePos returns the reference position of a site.
func (a *Architecture) SitePos(s SiteRef) geom.Point {
	return a.Entanglement[s.Zone].SitePos(s.Row, s.Col)
}

// SiteTrapPos returns the slot-th trap position of a site.
func (a *Architecture) SiteTrapPos(s SiteRef, slot int) geom.Point {
	return a.Entanglement[s.Zone].SiteTrapPos(s.Row, s.Col, slot)
}

// NearestSite returns the Rydberg site (across all entanglement zones)
// closest to p.
func (a *Architecture) NearestSite(p geom.Point) SiteRef {
	best := SiteRef{}
	bestD := -1.0
	for zi, z := range a.Entanglement {
		r, c := z.NearestSite(p)
		d := z.SitePos(r, c).Dist(p)
		if bestD < 0 || d < bestD {
			bestD = d
			best = SiteRef{zi, r, c}
		}
	}
	return best
}

// TrapRef identifies a storage trap: storage zone index (into a.Storage),
// SLM index within the zone, row and column.
type TrapRef struct {
	Zone, SLM, Row, Col int
}

// TrapPos returns a storage trap's position.
func (a *Architecture) TrapPos(t TrapRef) geom.Point {
	return a.Storage[t.Zone].SLMs[t.SLM].TrapPos(t.Row, t.Col)
}

// NearestStorageTrap returns the storage trap closest to p.
func (a *Architecture) NearestStorageTrap(p geom.Point) TrapRef {
	best := TrapRef{}
	bestD := -1.0
	for zi, z := range a.Storage {
		for si, s := range z.SLMs {
			r, c := s.NearestTrap(p)
			d := s.TrapPos(r, c).Dist(p)
			if bestD < 0 || d < bestD {
				bestD = d
				best = TrapRef{zi, si, r, c}
			}
		}
	}
	return best
}
