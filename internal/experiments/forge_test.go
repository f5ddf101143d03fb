package experiments

import (
	"context"
	"strings"
	"testing"
)

// tinyForgeSpecs keeps the forge tests fast while covering several families.
var tinyForgeSpecs = []string{
	"rb:n=8,depth=4,seed=2",
	"shuffle:n=10,depth=3,seed=2",
	"hiqp:logblocks=2,rounds=1",
}

func TestForgeSweep(t *testing.T) {
	tables, err := Forge(context.Background(), sequential(), tinyForgeSpecs)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 {
		t.Fatalf("tables = %d, want fidelity+duration", len(tables))
	}
	fid := tables[0]
	if len(fid.Rows) != len(tinyForgeSpecs) {
		t.Fatalf("rows = %d, want %d", len(fid.Rows), len(tinyForgeSpecs))
	}
	for _, r := range fid.Rows {
		if !strings.Contains(r.Circuit, ":") {
			t.Errorf("row label %q is not a canonical spec", r.Circuit)
		}
		for _, col := range forgeCols {
			v, ok := r.Values[col]
			if !ok {
				t.Fatalf("%s: missing column %s", r.Circuit, col)
			}
			if v <= 0 || v > 1 {
				t.Errorf("%s/%s: fidelity %g outside (0,1]", r.Circuit, col, v)
			}
		}
	}
}

// TestForgeSpecsNormalize checks sweep rows are labeled by canonical specs
// (the compile cache key), however the spec was spelled.
func TestForgeSpecsNormalize(t *testing.T) {
	tables, err := Forge(context.Background(), sequential(), []string{"spec:rb:depth=4,n=8,seed=2"})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := tables[0].Rows[0].Circuit, "rb:n=8,depth=4,seed=2"; got != want {
		t.Fatalf("row %q, want canonical %q", got, want)
	}
}

// TestSuiteAcceptsSpecs checks any experiment subset resolves workload specs
// alongside static benchmark names.
func TestSuiteAcceptsSpecs(t *testing.T) {
	benches, err := suite([]string{"bv_n14", "rb:n=8,depth=4,seed=2"})
	if err != nil {
		t.Fatal(err)
	}
	if len(benches) != 2 {
		t.Fatalf("benches = %d", len(benches))
	}
	if benches[1].Name != "rb:n=8,depth=4,seed=2" || benches[1].NumQubits != 8 {
		t.Fatalf("spec entry = %+v", benches[1])
	}
	// Deterministic rebuilds: two Build calls agree.
	a, b := benches[1].Build(), benches[1].Build()
	if len(a.Gates) != len(b.Gates) || a.NumQubits != b.NumQubits {
		t.Fatal("spec benchmark rebuilds differ")
	}
	if _, err := suite([]string{"rb:bogus=1"}); err == nil {
		t.Fatal("invalid spec accepted")
	}
}

// TestForgeSkipsNonSpecSubset pins the `-experiment all -circuits bv_n14`
// path: static benchmark names are skipped, not errors, and an all-static
// subset yields empty tables instead of compiling the default spec sweep.
func TestForgeSkipsNonSpecSubset(t *testing.T) {
	tables, err := Forge(context.Background(), sequential(), []string{"bv_n14", "rb:n=6,depth=3,seed=2"})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables[0].Rows) != 1 || tables[0].Rows[0].Circuit != "rb:n=6,depth=3,seed=2" {
		t.Fatalf("rows = %+v, want just the spec entry", tables[0].Rows)
	}
	tables, err = Forge(context.Background(), sequential(), []string{"bv_n14"})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables[0].Rows) != 0 {
		t.Fatalf("all-static subset produced %d rows, want 0", len(tables[0].Rows))
	}
}

func TestForgeDefaultSpecsValid(t *testing.T) {
	for _, s := range defaultForgeSpecs() {
		if _, err := forgeBenchmark(s); err != nil {
			t.Errorf("default spec %q: %v", s, err)
		}
	}
}
