package arch

import "testing"

func TestFingerprintStable(t *testing.T) {
	if Reference().Fingerprint() != Reference().Fingerprint() {
		t.Fatal("two Reference() instances must share a fingerprint")
	}
}

func TestFingerprintDistinguishesArchitectures(t *testing.T) {
	archs := map[string]*Architecture{
		"reference":  Reference(),
		"monolithic": Monolithic(),
		"triple":     ReferenceTriple(),
		"arch1":      Arch1Small(),
		"arch2":      Arch2TwoZones(),
		"logical832": Logical832(),
		"2aod":       WithAODs(Reference(), 2),
		"4aod":       WithAODs(Reference(), 4),
	}
	seen := map[string]string{}
	for name, a := range archs {
		fp := a.Fingerprint()
		if prev, ok := seen[fp]; ok {
			t.Errorf("%s and %s share fingerprint %s", name, prev, fp)
		}
		seen[fp] = name
	}
}

// TestFingerprintSeesUnserializedFields changes each unserialized field on
// a fresh value: an architecture is not mutated after its first use.
func TestFingerprintSeesUnserializedFields(t *testing.T) {
	base := Reference().Fingerprint()
	a := Reference()
	a.MovementAccel = 1234
	if a.Fingerprint() == base {
		t.Error("MovementAccel change must alter the fingerprint")
	}
	a = Reference()
	a.ZoneSep *= 2
	if a.Fingerprint() == base {
		t.Error("ZoneSep change must alter the fingerprint")
	}
}

// TestFingerprintMemoized requires a second Fingerprint call to allocate
// nothing, and WithAODs' copy of a fingerprinted architecture to compute
// its own.
func TestFingerprintMemoized(t *testing.T) {
	a := Reference()
	fp := a.Fingerprint()
	if allocs := testing.AllocsPerRun(100, func() { a.Fingerprint() }); allocs != 0 {
		t.Errorf("memoized Fingerprint allocates %v times per call", allocs)
	}
	if a.Fingerprint() != fp {
		t.Error("memoized fingerprint changed")
	}
	if w := WithAODs(a, 2); w.Fingerprint() == fp || w.Fingerprint() != WithAODs(Reference(), 2).Fingerprint() {
		t.Error("WithAODs copy kept the original's fingerprint")
	}
}
