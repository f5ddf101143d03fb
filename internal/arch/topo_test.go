package arch

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"
)

// checkTopology asserts that a's memoized tables are the ones its own
// geometry builds, and that ordinals round-trip.
func checkTopology(t *testing.T, label string, a *Architecture) {
	t.Helper()
	if got, want := a.topo(), buildTopology(a); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: memoized topology differs from one built from the architecture", label)
	}
	if a.TrapCount() != a.TotalStorageTraps() || a.SiteCount() != a.TotalSites() {
		t.Fatalf("%s: counts %d/%d, want %d/%d", label, a.TrapCount(), a.SiteCount(), a.TotalStorageTraps(), a.TotalSites())
	}
	i := 0
	for zi, z := range a.Storage {
		for si, s := range z.SLMs {
			for r := 0; r < s.Rows; r++ {
				for c := 0; c < s.Cols; c++ {
					tr := TrapRef{Zone: zi, SLM: si, Row: r, Col: c}
					if a.TrapOrdinal(tr) != i || a.TrapAt(i) != tr || a.TrapPosAt(i) != a.TrapPos(tr) {
						t.Fatalf("%s: trap %+v does not round-trip through ordinal %d", label, tr, i)
					}
					i++
				}
			}
		}
	}
	i = 0
	for zi, z := range a.Entanglement {
		for r := 0; r < z.SiteRows(); r++ {
			for c := 0; c < z.SiteCols(); c++ {
				if s := (SiteRef{Zone: zi, Row: r, Col: c}); a.SiteOrdinal(s) != i {
					t.Fatalf("%s: site %+v has ordinal %d, want %d", label, s, a.SiteOrdinal(s), i)
				}
				i++
			}
		}
	}
}

func sharedEntry(a *Architecture) *topology {
	topoTable.Lock()
	defer topoTable.Unlock()
	return topoTable.m[a.Fingerprint()]
}

// Fresh values of one architecture, including one decoded from JSON, share
// a single table.
func TestTopologySharedAcrossFreshValues(t *testing.T) {
	a, b := Reference(), Reference()
	data, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	var decoded Architecture
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Fingerprint() != a.Fingerprint() {
		t.Fatal("decoded reference architecture has a different fingerprint")
	}
	if a.topo() != b.topo() || a.topo() != decoded.topo() {
		t.Error("fresh Reference() values and a decoded copy hold different tables")
	}
	if sharedEntry(a) != a.topo() {
		t.Error("the shared table does not hold the reference architecture's topology")
	}
	checkTopology(t, "reference", a)
	checkTopology(t, "decoded", &decoded)
}

// A different geometry gets its own table.
func TestTopologyTripleSiteOwnTable(t *testing.T) {
	ref, tri := Reference(), ReferenceTriple()
	if ref.topo() == tri.topo() {
		t.Fatal("ReferenceTriple shares the reference architecture's table")
	}
	if tri.MaxSiteSlots() != 3 || ref.MaxSiteSlots() != 2 {
		t.Errorf("site slots %d/%d, want 3/2", tri.MaxSiteSlots(), ref.MaxSiteSlots())
	}
	checkTopology(t, "triple", tri)
}

// A WithAODs copy made after the source's first use has working tables of
// its own memo.
func TestTopologyWithAODsCopy(t *testing.T) {
	a := Reference()
	a.TrapCount()
	w := WithAODs(a, 3)
	checkTopology(t, "WithAODs copy", w)
	checkTopology(t, "WithAODs source", a)
	if w.Fingerprint() == a.Fingerprint() {
		t.Fatal("WithAODs copy has the source's fingerprint")
	}
	if sharedEntry(w) != w.topo() {
		t.Error("the copy's table is not the shared entry of its own fingerprint")
	}
}

// An architecture whose fingerprint cannot be computed gets a private
// table, never a shared entry.
func TestTopologyUnfingerprintableIsPrivate(t *testing.T) {
	a, b := Reference(), Reference()
	a.T2, b.T2 = math.NaN(), math.NaN()
	if _, err := a.fingerprint(); err == nil {
		t.Fatal("fingerprint of a NaN field did not fail")
	}
	if a.topo() == b.topo() {
		t.Error("two architectures without a fingerprint share a table")
	}
	if a.topo() == Reference().topo() {
		t.Error("an architecture without a fingerprint took the reference table")
	}
	checkTopology(t, "NaN T2", a)
}

// More distinct architectures than the limit keep the table bounded, and
// an architecture whose entry was evicted keeps its own tables.
func TestTopologyTableBounded(t *testing.T) {
	var archs []*Architecture
	for i := 0; i < topoTableLimit+5; i++ {
		a := Monolithic()
		a.Name = fmt.Sprintf("bounded-%d", i)
		a.TrapCount()
		archs = append(archs, a)
		topoTable.Lock()
		n := len(topoTable.m)
		topoTable.Unlock()
		if n > topoTableLimit {
			t.Fatalf("after %d architectures the table holds %d entries, limit %d", i+1, n, topoTableLimit)
		}
	}
	for _, a := range archs {
		checkTopology(t, a.Name, a)
	}
}

// Concurrent first use of fresh values settles on one table per value
// (run under -race).
func TestTopologyConcurrentFirstUse(t *testing.T) {
	archs := []*Architecture{Reference(), Reference(), ReferenceTriple()}
	got := make([][]*topology, len(archs))
	for i := range got {
		got[i] = make([]*topology, 8)
	}
	var wg sync.WaitGroup
	for i, a := range archs {
		for g := range got[i] {
			wg.Add(1)
			go func() {
				defer wg.Done()
				a.TrapOrdinal(TrapRef{Row: 1, Col: 2})
				a.SiteOrdinal(SiteRef{Row: 1})
				got[i][g] = a.topo()
			}()
		}
	}
	wg.Wait()
	for i, ts := range got {
		for _, tp := range ts {
			if tp != ts[0] {
				t.Fatalf("architecture %d: goroutines saw different tables", i)
			}
		}
	}
	if got[0][0] != got[1][0] {
		t.Error("two fresh Reference() values settled on different tables")
	}
}

// BenchmarkTopologyFreshArch measures what every compile pays for the
// topology: a fresh reference architecture and its first ordinal lookup.
func BenchmarkTopologyFreshArch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a := Reference()
		a.TrapOrdinal(TrapRef{Row: 1, Col: 2})
	}
}
