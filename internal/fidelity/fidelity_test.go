package fidelity

import (
	"math"
	"testing"
	"testing/quick"
)

func TestComputeKnownValues(t *testing.T) {
	p := NeutralAtom()
	s := Stats{
		OneQGates: 2,
		TwoQGates: 3,
		Excited:   4,
		Transfers: 10,
		Duration:  1000,
		Busy:      []float64{1000, 500},
	}
	b := Compute(p, s)
	if got, want := b.OneQ, math.Pow(0.9997, 2); math.Abs(got-want) > 1e-12 {
		t.Errorf("OneQ = %v, want %v", got, want)
	}
	if got, want := b.TwoQ, math.Pow(0.995, 3); math.Abs(got-want) > 1e-12 {
		t.Errorf("TwoQ = %v, want %v", got, want)
	}
	if got, want := b.Excite, math.Pow(0.9975, 4); math.Abs(got-want) > 1e-12 {
		t.Errorf("Excite = %v, want %v", got, want)
	}
	if got, want := b.Transfer, math.Pow(0.999, 10); math.Abs(got-want) > 1e-12 {
		t.Errorf("Transfer = %v, want %v", got, want)
	}
	// Qubit 0 fully busy (no decoherence), qubit 1 idles 500µs of T2=1.5e6.
	if got, want := b.Decohere, 1-500/1.5e6; math.Abs(got-want) > 1e-12 {
		t.Errorf("Decohere = %v, want %v", got, want)
	}
	want := b.OneQ * b.TwoQ * b.Excite * b.Transfer * b.Decohere
	if math.Abs(b.Total-want) > 1e-12 {
		t.Errorf("Total = %v, want product %v", b.Total, want)
	}
	if math.Abs(b.TwoQCombined()-b.TwoQ*b.Excite) > 1e-15 {
		t.Error("TwoQCombined mismatch")
	}
}

func TestComputeEmptyIsPerfect(t *testing.T) {
	b := Compute(NeutralAtom(), Stats{})
	if b.Total != 1 {
		t.Errorf("empty stats fidelity = %v, want 1", b.Total)
	}
}

func TestDecoherenceClamps(t *testing.T) {
	p := NeutralAtom()
	// Idle longer than T2 → decoherence term clamps at 0, not negative.
	s := Stats{Duration: 2 * p.T2, Busy: []float64{0}}
	b := Compute(p, s)
	if b.Decohere != 0 || b.Total != 0 {
		t.Errorf("over-idle should clamp to zero: %v", b.Decohere)
	}
	// Busy beyond duration → idle clamps at 0.
	s2 := Stats{Duration: 10, Busy: []float64{20}}
	if got := Compute(p, s2).Decohere; got != 1 {
		t.Errorf("negative idle should clamp: %v", got)
	}
}

func TestFidelityBoundsProperty(t *testing.T) {
	p := NeutralAtom()
	f := func(g1, g2, exc, tran uint8, durRaw uint16) bool {
		s := Stats{
			OneQGates: int(g1), TwoQGates: int(g2),
			Excited: int(exc), Transfers: int(tran),
			Duration: float64(durRaw),
			Busy:     []float64{0, float64(durRaw) / 2},
		}
		b := Compute(p, s)
		ok := b.Total >= 0 && b.Total <= 1
		for _, v := range []float64{b.OneQ, b.TwoQ, b.Excite, b.Transfer, b.Decohere} {
			ok = ok && v >= 0 && v <= 1
		}
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMoreErrorsLowerFidelity(t *testing.T) {
	p := NeutralAtom()
	base := Stats{TwoQGates: 10, Duration: 100, Busy: []float64{50}}
	fBase := Compute(p, base).Total
	worse := base
	worse.TwoQGates = 20
	if Compute(p, worse).Total >= fBase {
		t.Error("more 2Q gates must lower fidelity")
	}
	worse2 := base
	worse2.Excited = 5
	if Compute(p, worse2).Total >= fBase {
		t.Error("excitations must lower fidelity")
	}
	worse3 := base
	worse3.Duration = 10000
	if Compute(p, worse3).Total >= fBase {
		t.Error("longer idling must lower fidelity")
	}
}

func TestAddBusyGrows(t *testing.T) {
	var s Stats
	s.AddBusy(3, 5)
	s.AddBusy(3, 2)
	s.AddBusy(0, 1)
	if len(s.Busy) != 4 || s.Busy[3] != 7 || s.Busy[0] != 1 {
		t.Errorf("Busy = %v", s.Busy)
	}
}

func TestMerge(t *testing.T) {
	a := Stats{OneQGates: 1, TwoQGates: 2, Duration: 10, Busy: []float64{1}}
	b := Stats{OneQGates: 3, Excited: 4, Transfers: 5, Duration: 7, Busy: []float64{2, 3}}
	merge(&a, b)
	if a.OneQGates != 4 || a.TwoQGates != 2 || a.Excited != 4 || a.Transfers != 5 {
		t.Errorf("counts: %+v", a)
	}
	if a.Duration != 10 {
		t.Errorf("duration should take max: %v", a.Duration)
	}
	if a.Busy[0] != 3 || a.Busy[1] != 3 {
		t.Errorf("busy: %v", a.Busy)
	}
}

func TestGeoMean(t *testing.T) {
	if g := GeoMean([]float64{4, 1}); math.Abs(g-2) > 1e-12 {
		t.Errorf("GeoMean = %v", g)
	}
	if g := GeoMean(nil); g != 0 {
		t.Errorf("empty GeoMean = %v", g)
	}
	if g := GeoMean([]float64{0.5}); math.Abs(g-0.5) > 1e-12 {
		t.Errorf("single GeoMean = %v", g)
	}
	// Zero values are floored, not fatal.
	if g := GeoMean([]float64{0, 1}); g <= 0 {
		t.Errorf("zero-containing GeoMean = %v", g)
	}
}

func TestPlatformParams(t *testing.T) {
	na := NeutralAtom()
	if na.F2 != 0.995 || na.T1Q != 52 || na.T2 != 1.5e6 {
		t.Errorf("neutral atom params wrong: %+v", na)
	}
	h := SCHeron()
	if h.F2 != 0.999 || h.T2 != 311 || h.T2Q != 0.068 {
		t.Errorf("heron params wrong: %+v", h)
	}
	g := SCGrid()
	if g.T2 != 89 || g.T2Q != 0.042 {
		t.Errorf("grid params wrong: %+v", g)
	}
}

// merge accumulates other into s (durations take the max; counts add).
func merge(s *Stats, other Stats) {
	s.OneQGates += other.OneQGates
	s.TwoQGates += other.TwoQGates
	s.Excited += other.Excited
	s.Transfers += other.Transfers
	if other.Duration > s.Duration {
		s.Duration = other.Duration
	}
	for q, b := range other.Busy {
		s.AddBusy(q, b)
	}
}
