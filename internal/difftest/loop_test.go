package difftest

import (
	"context"
	"strings"
	"testing"

	"zac/internal/workload"
)

// TestOracleCleanOnSmokeSpecs is the oracle's own regression gate: the
// real registry produces zero divergences over the pinned smoke specs.
// This is the same configuration `make fuzz-diff-smoke` runs in CI.
func TestOracleCleanOnSmokeSpecs(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles every smoke spec twice with every compiler; skipped in -short")
	}
	o, err := New(Options{NoShrink: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range workload.SmokeSpecs() {
		parsed, err := workload.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		c, err := parsed.Generate()
		if err != nil {
			t.Fatal(err)
		}
		divs, err := o.Check(context.Background(), c, parsed.Canonical())
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		for _, d := range divs {
			t.Errorf("%s: %s", spec, d)
		}
	}
}

// TestLoopReachesNewPlannerBranch pins the coverage-guided loop's reason
// to exist: starting from the pinned smoke specs, mutation reaches at
// least one planner feature the seeds alone never hit. The run is fully
// deterministic (splitmix64 stream from LoopOptions.Seed), so this is a
// regression test, not a flake: seed 1 mutates hiqp up to logblocks=6,
// whose 64-wide stages overflow the gate-zone δ-expansion box.
func TestLoopReachesNewPlannerBranch(t *testing.T) {
	if testing.Short() {
		t.Skip("runs ~50 oracle checks; skipped in -short")
	}
	o, err := New(Options{
		Compilers: []string{"zac", "zac-vanilla", "zac-dynplace", "zac-dynplace-reuse", "zac-advreuse"},
		NoShrink:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	lr, err := o.RunLoop(context.Background(), LoopOptions{Iterations: 48, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(lr.Divergences) != 0 {
		for _, d := range lr.Divergences {
			t.Errorf("unexpected divergence: %s", d)
		}
	}
	if len(lr.NewFeatures) == 0 {
		t.Fatalf("mutation reached no feature beyond the seeds; report:\n%s", lr)
	}
	found := false
	for _, f := range lr.NewFeatures {
		if strings.HasPrefix(f, "place:") {
			found = true
		}
	}
	if !found {
		t.Errorf("no planner branch among new features %v", lr.NewFeatures)
	}
	if len(lr.Kept) == 0 {
		t.Error("no mutated input was kept as a seed")
	}
	if len(lr.BaselineFeatures) == 0 {
		t.Error("seeds reached no features — the coverage probe is dead")
	}
}

// TestLoopDeterministic: the same seed replays the same run byte for byte.
func TestLoopDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the mutation loop twice; skipped in -short")
	}
	o, err := New(Options{Compilers: []string{"zac"}, NoShrink: true})
	if err != nil {
		t.Fatal(err)
	}
	opts := LoopOptions{Seeds: []string{"rb:n=6,depth=4,seed=7"}, Iterations: 12, Seed: 42}
	a, err := o.RunLoop(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := o.RunLoop(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("two runs with the same seed differ:\n--- a\n%s\n--- b\n%s", a, b)
	}
}

// TestLoopSkipsWideSeeds: seeds beyond the oracle's qubit bound are
// counted, not fatal.
func TestLoopSkipsWideSeeds(t *testing.T) {
	o, err := New(Options{Compilers: []string{"zac"}, MaxQubits: 8, NoShrink: true})
	if err != nil {
		t.Fatal(err)
	}
	lr, err := o.RunLoop(context.Background(), LoopOptions{
		Seeds: []string{"rb:n=6,depth=2,seed=1", "rb:n=20,depth=2,seed=1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if lr.Skipped != 1 || lr.Inputs != 1 {
		t.Errorf("Skipped=%d Inputs=%d, want 1 and 1", lr.Skipped, lr.Inputs)
	}
}

// TestMutateSpecStaysInSchema: a thousand mutations of every smoke spec
// all reparse and regenerate.
func TestMutateSpecStaysInSchema(t *testing.T) {
	r := workload.NewRNG(3)
	for _, s := range workload.SmokeSpecs() {
		spec, err := workload.Parse(s)
		if err != nil {
			t.Fatal(err)
		}
		cur := spec
		for i := 0; i < 200; i++ {
			cur = MutateSpec(r, cur)
			if _, err := workload.Parse(cur.Canonical()); err != nil {
				t.Fatalf("%s: mutation %d produced unparseable spec %q: %v", s, i, cur.Canonical(), err)
			}
		}
	}
}

// TestMutateCircuitStaysValid: mutations keep gates arity-correct and
// qubits in range, and never alias the parent's slices.
func TestMutateCircuitStaysValid(t *testing.T) {
	r := workload.NewRNG(5)
	parent := genCircuit(t, "qaoa:n=10,p=2,seed=7")
	orig := len(parent.Gates)
	for i := 0; i < 300; i++ {
		m := MutateCircuit(r, parent)
		if len(parent.Gates) != orig {
			t.Fatalf("mutation %d modified the parent", i)
		}
		for gi, g := range m.Gates {
			if len(g.Qubits) != g.Kind.NumQubits() || len(g.Params) != g.Kind.NumParams() {
				t.Fatalf("mutation %d gate %d: malformed %v", i, gi, g)
			}
			seen := map[int]bool{}
			for _, q := range g.Qubits {
				if q < 0 || q >= m.NumQubits || seen[q] {
					t.Fatalf("mutation %d gate %d: bad qubits %v", i, gi, g.Qubits)
				}
				seen[q] = true
			}
		}
	}
}
