package workload

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"zac/internal/qasm"
	"zac/internal/sim"
)

// specCases covers every family at defaults plus parameterized variants.
func specCases() []string {
	var specs []string
	for _, fam := range Families() {
		specs = append(specs, fam)
	}
	specs = append(specs,
		"clifford:n=8,gates=60,t=30,seed=9",
		"rb:n=6,depth=5,seed=3",
		"shuffle:n=10,depth=4,seed=2",
		"qaoa:n=8,p=3,seed=5",
		"ising:n=9,layers=2",
		"hiqp:logblocks=2,rounds=2",
		"spec:rb:n=4,depth=3,seed=11",
	)
	return specs
}

func TestDeterminism(t *testing.T) {
	for _, spec := range specCases() {
		a, err := Build(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		b, err := Build(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two builds differ", spec)
		}
		qa, qb := qasm.Write(a), qasm.Write(b)
		if qa != qb {
			t.Errorf("%s: QASM emission differs across builds", spec)
		}
		// The emitted QASM must parse back to the same shape.
		back, err := qasm.Parse(qa)
		if err != nil {
			t.Errorf("%s: emitted QASM does not parse: %v", spec, err)
		} else if back.NumQubits != a.NumQubits || len(back.Gates) != len(a.Gates) {
			t.Errorf("%s: QASM round trip changed shape", spec)
		}
	}
}

// TestRNGStability pins the splitmix64 stream: the spec-as-cache-key
// contract requires the same bytes on every platform and toolchain.
func TestRNGStability(t *testing.T) {
	r := NewRNG(7)
	got := []uint64{r.Uint64(), r.Uint64(), r.Uint64()}
	// splitmix64(seed=7) is fully specified; derive the expected stream from
	// the reference recurrence.
	want := make([]uint64, len(got))
	state := uint64(7)
	for i := range want {
		state += 0x9E3779B97F4A7C15
		z := state
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		want[i] = z ^ (z >> 31)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("stream[%d] = %#x, want %#x", i, got[i], want[i])
		}
	}
}

func TestSeedChangesCircuit(t *testing.T) {
	for _, fam := range []string{"clifford", "rb", "shuffle", "qaoa"} {
		a, err := Build(fam + ":seed=1")
		if err != nil {
			t.Fatal(err)
		}
		b, err := Build(fam + ":seed=2")
		if err != nil {
			t.Fatal(err)
		}
		a.Name, b.Name = "", ""
		if reflect.DeepEqual(a, b) {
			t.Errorf("%s: seeds 1 and 2 produced identical circuits", fam)
		}
	}
}

func TestCanonicalSpec(t *testing.T) {
	s, err := Parse("RB: depth=5 , n=6")
	if err != nil {
		t.Fatal(err)
	}
	want := "rb:n=6,depth=5,seed=1"
	if got := s.Canonical(); got != want {
		t.Fatalf("canonical = %q, want %q", got, want)
	}
	// Parsing the canonical form is a fixed point.
	s2, err := Parse(s.Canonical())
	if err != nil {
		t.Fatal(err)
	}
	if s2.Canonical() != want {
		t.Fatalf("canonical not stable: %q", s2.Canonical())
	}
	// The generated circuit is named after the canonical spec.
	c, err := s.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if c.Name != want {
		t.Fatalf("circuit name = %q, want %q", c.Name, want)
	}
}

func TestParseErrors(t *testing.T) {
	// Each case pins both that Parse rejects the spec and what the error
	// says — the messages are user-facing via `zac -circuit spec:` and
	// `zac-fuzz -spec`, so a regression here is a UX regression.
	cases := []struct {
		name, spec, wantErr string
	}{
		{"unknown family", "frobnicate:n=4", `unknown family "frobnicate"`},
		{"unknown param", "rb:bogus=4", `unknown parameter "bogus"`},
		{"bad int", "rb:n=four", `bad integer "four"`},
		{"below min", "rb:n=0", "out of range"},
		{"above max", "clifford:t=200", "out of range"},
		{"duplicate", "rb:n=4,n=5", `duplicate parameter "n"`},
		{"malformed", "rb:n", "malformed parameter"},
		{"empty", "", "empty spec"},
		{"empty family", ":n=4", "empty spec"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(tc.spec)
			if err == nil {
				t.Fatalf("Parse(%q): expected error", tc.spec)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("Parse(%q) error %q does not mention %q", tc.spec, err, tc.wantErr)
			}
		})
	}
}

func TestGateBudgetOverflow(t *testing.T) {
	// Budget enforcement happens at generation time (the closed-form
	// estimate runs before any gate is allocated), not at parse time: the
	// parameters individually sit within their schema bounds, only their
	// product blows the budget.
	cases := []string{
		"rb:n=2048,depth=2048",      // 2·depth·(n+n/2) ≈ 1.2e7 ≫ 2^18
		"shuffle:n=2048,depth=2048", // depth·(n+n/2)
		"ising:n=2048,layers=512",   // n + layers·2n ≈ 2.1e6
		"qaoa:n=2048,p=128",         // n + p·(n+3n/2) ≈ 6.6e5
	}
	for _, spec := range cases {
		t.Run(spec, func(t *testing.T) {
			s, err := Parse(spec)
			if err != nil {
				t.Fatalf("Parse(%q): %v (budget must reject at Generate, not Parse)", spec, err)
			}
			if _, err := s.Generate(); err == nil {
				t.Fatalf("Generate(%q): expected gate-budget error", spec)
			} else if !strings.Contains(err.Error(), "budget") {
				t.Errorf("Generate(%q) error %q does not mention the budget", spec, err)
			}
		})
	}
	// Just inside the budget still generates.
	s, err := Parse("ising:n=64,layers=6")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Generate(); err != nil {
		t.Errorf("in-budget spec rejected: %v", err)
	}
}

func TestRBMirrorIsIdentity(t *testing.T) {
	for _, spec := range []string{"rb:n=3,depth=4,seed=2", "rb:n=5,depth=6,seed=9", "rb:n=1,depth=3,seed=4"} {
		c, err := Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		st, err := sim.Run(c)
		if err != nil {
			t.Fatal(err)
		}
		if p := real(st.Amp[0])*real(st.Amp[0]) + imag(st.Amp[0])*imag(st.Amp[0]); math.Abs(p-1) > 1e-9 {
			t.Errorf("%s: |<0|ψ>|² = %v, want 1 (mirror must compose to identity)", spec, p)
		}
	}
}

func TestQAOADegree(t *testing.T) {
	c, err := Build("qaoa:n=16,p=1,seed=3")
	if err != nil {
		t.Fatal(err)
	}
	deg := map[int]int{}
	edges := map[[2]int]bool{}
	for _, g := range c.Gates {
		if len(g.Qubits) != 2 {
			continue
		}
		e := [2]int{min(g.Qubits[0], g.Qubits[1]), max(g.Qubits[0], g.Qubits[1])}
		if !edges[e] {
			edges[e] = true
			deg[e[0]]++
			deg[e[1]]++
		}
	}
	for q := 0; q < c.NumQubits; q++ {
		if deg[q] != 3 {
			t.Fatalf("qubit %d degree %d, want 3", q, deg[q])
		}
	}
}

func TestRandom3RegularFallback(t *testing.T) {
	// n=4 has exactly three perfect matchings, so the union sampler
	// frequently collides; whatever path it takes must yield a simple
	// 3-regular graph.
	for seed := int64(0); seed < 10; seed++ {
		edges := random3Regular(4, NewRNG(seed))
		if len(edges) != 6 {
			t.Fatalf("seed %d: %d edges, want 6", seed, len(edges))
		}
	}
}

func TestHIQPBuildsOnFTQC(t *testing.T) {
	c, err := Build("hiqp:logblocks=3,rounds=2")
	if err != nil {
		t.Fatal(err)
	}
	if c.NumQubits != 8 {
		t.Fatalf("qubits = %d, want 8 blocks", c.NumQubits)
	}
	// One pass has log2(8)=3 CNOT layers of 4 CZs; two rounds double it.
	cz := 0
	for _, g := range c.Gates {
		if len(g.Qubits) == 2 {
			cz++
		}
	}
	if cz != 2*3*4 {
		t.Fatalf("CZ count = %d, want 24", cz)
	}
}

func TestListMentionsEveryFamily(t *testing.T) {
	out := List()
	for _, fam := range Families() {
		if !strings.Contains(out, fam) {
			t.Errorf("List() missing family %s:\n%s", fam, out)
		}
	}
	if !strings.Contains(out, "seed") || !strings.Contains(out, "default") {
		t.Errorf("List() missing parameter schemas:\n%s", out)
	}
}

// TestGateBudget pins the product guard: per-parameter Max caps cannot
// bound n×depth, so oversized products must fail before allocating gates.
func TestGateBudget(t *testing.T) {
	for _, spec := range []string{
		"rb:n=2048,depth=2048",
		"shuffle:n=2048,depth=2048",
		"clifford:n=8,gates=200000", // above MaxSpecGates? gates cap is 200000 < budget — expect success
	} {
		_, err := Build(spec)
		switch spec {
		case "clifford:n=8,gates=200000":
			if err != nil {
				t.Errorf("%s: %v (within budget, should build)", spec, err)
			}
		default:
			if err == nil {
				t.Errorf("%s: expected gate-budget error", spec)
			}
		}
	}
	// Every family's worst per-parameter corner obeys some bound: either it
	// builds, or it fails with the budget error — never hangs or OOMs the
	// test by construction (spot-check the estimate math stays conservative).
	c, err := Build("rb:n=64,depth=64,seed=1")
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(c.Gates)) > MaxSpecGates {
		t.Fatalf("budget accepted %d gates", len(c.Gates))
	}
}

// TestQAOANormalization pins the even-width contract: odd n aliases to the
// even spec, one canonical string, one cache key.
func TestQAOANormalization(t *testing.T) {
	s, err := Parse("qaoa:n=9,p=1,seed=2")
	if err != nil {
		t.Fatal(err)
	}
	want := "qaoa:n=10,p=1,seed=2"
	if got := s.Canonical(); got != want {
		t.Fatalf("canonical = %q, want %q", got, want)
	}
	c, err := s.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if c.NumQubits != 10 || c.Name != want {
		t.Fatalf("generated %q with %d qubits, want %q/10", c.Name, c.NumQubits, want)
	}
	even, err := Build(want)
	if err != nil {
		t.Fatal(err)
	}
	odd, err := Build("qaoa:n=9,p=1,seed=2")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(even, odd) {
		t.Fatal("qaoa:n=9 and qaoa:n=10 must alias to one circuit")
	}
}

func TestIsSpec(t *testing.T) {
	for spec, want := range map[string]bool{
		"spec:rb:n=4":    true,
		"rb:n=4,depth=2": true,
		"shuffle":        true,
		"ghz_n23":        false,
		"bv_n14":         false,
	} {
		if got := IsSpec(spec); got != want {
			t.Errorf("IsSpec(%q) = %v, want %v", spec, got, want)
		}
	}
}
