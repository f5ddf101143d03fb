package arch

import (
	"math"
	"sort"
	"sync"

	"zac/internal/geom"
)

// topology is the precomputed dense-index view of an architecture: every
// storage trap and Rydberg site gets a small-integer ordinal, trap positions
// are tabulated once, and the nearest-row-first storage ordering used by initial
// placement is sorted a single time. The placement hot path indexes these
// tables instead of recomputing geometry (or hashing TrapRef/SiteRef map
// keys) on every call.
//
// An architecture memoizes its topology on first use (Architecture.topology),
// taking it from a bounded table shared by every architecture with the same
// Fingerprint. A topology is a pure function of the geometry the fingerprint
// covers, so equal fingerprints may share one table; it is never written
// after it is built.
type topology struct {
	trapCount int
	trapBase  [][]int // [zone][slm] → ordinal of trap (0, 0)
	trapRefs  []TrapRef
	trapPos   []geom.Point

	siteCount int
	siteBase  []int // [zone] → ordinal of site (0, 0)
	maxSlots  int

	// nearestFirst is the storage-trap ordering of TrivialInitial (§VII-D):
	// rows by distance to the first entanglement zone, then columns
	// ascending. Nil when the architecture has no entanglement zone.
	nearestFirst []TrapRef
	// trapNearSite[ord] is NearestSite(trapPos[ord]); nil without zones.
	trapNearSite []SiteRef
}

// topoTableLimit bounds the shared table. A long-running zac-serve decodes
// a fresh *Architecture per request, but the requests name few distinct
// architectures, and every decoded copy of one of them finds its table
// here. Past the limit an arbitrary entry is evicted: architectures that
// already hold it keep it, and a later one with its fingerprint rebuilds it.
const topoTableLimit = 16

var topoTable = struct {
	sync.Mutex
	m map[string]*topology // Fingerprint → topology
}{m: map[string]*topology{}}

func (a *Architecture) topo() *topology {
	if t, ok := a.topology.Load().(*topology); ok {
		return t
	}
	t := sharedTopology(a)
	if !a.topology.CompareAndSwap(nil, t) {
		return a.topology.Load().(*topology) // a concurrent first use won
	}
	return t
}

// sharedTopology returns the table of a's fingerprint, building and
// recording it on a miss. An architecture whose fingerprint cannot be
// computed (a NaN or infinite field) gets a private table: its Fingerprint
// is not a faithful key for its geometry.
func sharedTopology(a *Architecture) *topology {
	fp, err := a.fingerprint()
	if err != nil {
		return buildTopology(a)
	}
	topoTable.Lock()
	t := topoTable.m[fp]
	topoTable.Unlock()
	if t != nil {
		return t
	}
	t = buildTopology(a)
	topoTable.Lock()
	defer topoTable.Unlock()
	if prev := topoTable.m[fp]; prev != nil {
		return prev // built concurrently by another architecture
	}
	if len(topoTable.m) >= topoTableLimit {
		for k := range topoTable.m {
			delete(topoTable.m, k)
			break
		}
	}
	topoTable.m[fp] = t
	return t
}

func buildTopology(a *Architecture) *topology {
	t := &topology{}

	t.trapBase = make([][]int, len(a.Storage))
	for zi, z := range a.Storage {
		t.trapBase[zi] = make([]int, len(z.SLMs))
		for si, s := range z.SLMs {
			t.trapBase[zi][si] = t.trapCount
			t.trapCount += s.Rows * s.Cols
		}
	}
	t.trapRefs = make([]TrapRef, 0, t.trapCount)
	t.trapPos = make([]geom.Point, 0, t.trapCount)
	for zi, z := range a.Storage {
		for si, s := range z.SLMs {
			for r := 0; r < s.Rows; r++ {
				for c := 0; c < s.Cols; c++ {
					ref := TrapRef{Zone: zi, SLM: si, Row: r, Col: c}
					t.trapRefs = append(t.trapRefs, ref)
					t.trapPos = append(t.trapPos, a.TrapPos(ref))
				}
			}
		}
	}

	t.siteBase = make([]int, len(a.Entanglement))
	for zi, z := range a.Entanglement {
		t.siteBase[zi] = t.siteCount
		t.siteCount += z.SiteRows() * z.SiteCols()
		if n := z.SiteSlots(); n > t.maxSlots {
			t.maxSlots = n
		}
	}
	if len(a.Entanglement) > 0 {
		entY := a.Entanglement[0].Offset.Y
		traps := append([]TrapRef(nil), t.trapRefs...)
		sort.Slice(traps, func(i, j int) bool {
			pi, pj := a.TrapPos(traps[i]), a.TrapPos(traps[j])
			di, dj := math.Abs(pi.Y-entY), math.Abs(pj.Y-entY)
			if di != dj {
				return di < dj
			}
			return pi.X < pj.X
		})
		t.nearestFirst = traps

		t.trapNearSite = make([]SiteRef, t.trapCount)
		for i, p := range t.trapPos {
			t.trapNearSite[i] = a.NearestSite(p)
		}
	}
	return t
}

// TrapCount returns the number of storage traps (the ordinal range).
func (a *Architecture) TrapCount() int { return a.topo().trapCount }

// TrapOrdinal maps a storage trap to its dense ordinal in [0, TrapCount).
func (a *Architecture) TrapOrdinal(t TrapRef) int {
	return a.topo().trapBase[t.Zone][t.SLM] + t.Row*a.Storage[t.Zone].SLMs[t.SLM].Cols + t.Col
}

// TrapAt is the inverse of TrapOrdinal.
func (a *Architecture) TrapAt(ord int) TrapRef { return a.topo().trapRefs[ord] }

// TrapPosAt returns the precomputed position of the trap with the given
// ordinal (identical bits to TrapPos of the same trap).
func (a *Architecture) TrapPosAt(ord int) geom.Point { return a.topo().trapPos[ord] }

// SiteCount returns the number of Rydberg sites (the site-ordinal range).
func (a *Architecture) SiteCount() int { return a.topo().siteCount }

// SiteOrdinal maps a Rydberg site to its dense ordinal in [0, SiteCount).
func (a *Architecture) SiteOrdinal(s SiteRef) int {
	return a.topo().siteBase[s.Zone] + s.Row*a.Entanglement[s.Zone].SiteCols() + s.Col
}

// MaxSiteSlots returns the largest trap count of any Rydberg site (0 with no
// entanglement zones).
func (a *Architecture) MaxSiteSlots() int { return a.topo().maxSlots }

// StorageTrapsNearestFirst returns every storage trap ordered by row
// distance to the first entanglement zone, then column — the ordering of the
// paper's Vanilla initial placement. The slice is shared and must be treated
// as read-only. Requires at least one entanglement zone.
func (a *Architecture) StorageTrapsNearestFirst() []TrapRef {
	t := a.topo()
	if t.nearestFirst == nil {
		_ = a.Entanglement[0] // preserve the out-of-range panic of the unindexed path
	}
	return t.nearestFirst
}

// NearestSiteOfTrap returns the precomputed NearestSite of a storage trap's
// position, by trap ordinal. Requires at least one entanglement zone.
func (a *Architecture) NearestSiteOfTrap(ord int) SiteRef {
	t := a.topo()
	if t.trapNearSite == nil {
		_ = a.Entanglement[0]
	}
	return t.trapNearSite[ord]
}
