package experiments

import (
	"context"
	"strings"
	"testing"
)

// fast is a minimal subset that exercises every experiment path quickly.
var fast = []string{"bv_n14", "ghz_n23"}

func TestRegistryComplete(t *testing.T) {
	want := []string{"advreuse", "compilers", "fig10", "fig11", "fig12", "fig13",
		"fig14", "fig1c", "fig8", "fig9", "forge", "ftqc", "multizone", "nativeccz",
		"sweep", "table1", "table2", "workloads", "zair"}
	got := Registry()
	if len(got) != len(want) {
		t.Fatalf("registry %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("registry %v, want %v", got, want)
		}
	}
}

func TestRunUnknown(t *testing.T) {
	if _, err := Run("nope", nil); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunBadCircuit(t *testing.T) {
	if _, err := Run("fig8", []string{"nope"}); err == nil {
		t.Fatal("unknown circuit accepted")
	}
}

func TestTable1(t *testing.T) {
	tabs, err := Run("table1", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) != 1 || len(tabs[0].Rows) != 3 {
		t.Fatalf("table1 shape: %+v", tabs)
	}
	if tabs[0].Rows[0].Values["f2"] != 0.995 {
		t.Error("neutral atom f2 wrong")
	}
}

func TestFig8Shape(t *testing.T) {
	tabs, err := Run("fig8", fast)
	if err != nil {
		t.Fatal(err)
	}
	tab := tabs[0]
	if len(tab.Rows) != 2 || len(tab.Columns) != 6 {
		t.Fatalf("fig8 shape: %d rows %d cols", len(tab.Rows), len(tab.Columns))
	}
	for _, r := range tab.Rows {
		zac := r.Values[ColZAC]
		if zac <= 0 || zac > 1 {
			t.Fatalf("%s: ZAC fidelity %v", r.Circuit, zac)
		}
		// The headline result: ZAC beats every neutral-atom baseline. (SC is
		// exempt — our near-path layout lets SC win pure chain circuits, a
		// documented in DESIGN.md, "Known deviations from the paper".)
		for _, col := range []string{ColAtomique, ColEnola, ColNALAC} {
			if r.Values[col] > zac {
				t.Errorf("%s: %s (%v) beats ZAC (%v)", r.Circuit, col, r.Values[col], zac)
			}
		}
	}
}

func TestFig9ThreeTables(t *testing.T) {
	tabs, err := Run("fig9", fast)
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) != 3 {
		t.Fatalf("fig9 tables = %d", len(tabs))
	}
	// Atomique never transfers atoms: its transfer fidelity is exactly 1.
	for _, r := range tabs[1].Rows {
		if r.Values[ColAtomique] != 1 {
			t.Errorf("%s: atomique transfer fidelity %v", r.Circuit, r.Values[ColAtomique])
		}
	}
	// ZAC's 2Q-combined must beat Enola's (no excitation).
	for _, r := range tabs[0].Rows {
		if r.Values[ColZAC] < r.Values[ColEnola] {
			t.Errorf("%s: ZAC 2Q %v below Enola %v", r.Circuit, r.Values[ColZAC], r.Values[ColEnola])
		}
	}
}

func TestFig11Ordering(t *testing.T) {
	tabs, err := Run("fig11", fast)
	if err != nil {
		t.Fatal(err)
	}
	g := tabs[0].GeoMeanRow().Values
	if g["dynPlace+reuse"] < g["dynPlace"] {
		t.Errorf("reuse should help: %v vs %v", g["dynPlace+reuse"], g["dynPlace"])
	}
}

func TestFig13Bounds(t *testing.T) {
	tabs, err := Run("fig13", fast)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tabs[0].Rows {
		zac := r.Values["ZAC"]
		pm := r.Values["PerfectMovement"]
		pp := r.Values["PerfectPlacement"]
		pr := r.Values["PerfectReuse"]
		if !(zac <= pm+1e-9 && pm <= pp+1e-9 && pp <= pr+1e-9) {
			t.Errorf("%s: bound ordering violated: %v ≤ %v ≤ %v ≤ %v",
				r.Circuit, zac, pm, pp, pr)
		}
	}
}

func TestFig14Monotone(t *testing.T) {
	tabs, err := Run("fig14", []string{"ising_n42"})
	if err != nil {
		t.Fatal(err)
	}
	r := tabs[0].Rows[0].Values
	if r["2AOD"] < r["1AOD"]-1e-9 {
		t.Errorf("second AOD hurt fidelity: %v vs %v", r["2AOD"], r["1AOD"])
	}
}

func TestMultiZone(t *testing.T) {
	tabs, err := Run("multizone", nil)
	if err != nil {
		t.Fatal(err)
	}
	rows := tabs[0].Rows
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	// The second zone must not hurt (paper: it helps by 15%).
	if rows[1].Values["fidelity"] < rows[0].Values["fidelity"]-1e-6 {
		t.Errorf("two zones (%v) below one zone (%v)",
			rows[1].Values["fidelity"], rows[0].Values["fidelity"])
	}
}

func TestZAIRStats(t *testing.T) {
	tabs, err := Run("zair", fast)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tabs[0].Rows {
		if r.Values["zairPerGate"] <= 0 || r.Values["machinePerGate"] < r.Values["zairPerGate"] {
			t.Errorf("%s: densities %v / %v", r.Circuit, r.Values["zairPerGate"], r.Values["machinePerGate"])
		}
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{Title: "T", Columns: []string{"a", "b"}}
	tab.AddRow("x", map[string]float64{"a": 0.5, "b": 2})
	tab.AddRow("y", map[string]float64{"a": 0.25})
	out := tab.Render()
	if !strings.Contains(out, "=== T ===") || !strings.Contains(out, "GMean") {
		t.Errorf("render:\n%s", out)
	}
	csv := tab.CSV()
	if !strings.HasPrefix(csv, "circuit,a,b\n") {
		t.Errorf("csv:\n%s", csv)
	}
	if !strings.Contains(csv, "x,0.5,2") {
		t.Errorf("csv row missing:\n%s", csv)
	}
}

// TestCompilerSweepCompileTime: a baseline compiles the fast subset in well
// under a millisecond, so its compile-time cells and their GMean must keep
// the fraction instead of reading 0 (and 1e-300 for the GMean). No compile
// takes less than a nanosecond.
func TestCompilerSweepCompileTime(t *testing.T) {
	tabs, err := CompilerSweep(context.Background(), Config{Parallel: 2}, fast, []string{"enola"})
	if err != nil {
		t.Fatal(err)
	}
	cmp := tabs[2]
	if !strings.Contains(cmp.Title, "compile time") {
		t.Fatalf("third table is %q, want the compile-time table", cmp.Title)
	}
	for _, r := range append(cmp.Rows, cmp.GeoMeanRow()) {
		if v := r.Values["enola"]; !(v >= 1e-6) {
			t.Errorf("%s: enola compile time = %v ms, want at least 1 ns", r.Circuit, v)
		}
	}
}

func TestGeoMeanRow(t *testing.T) {
	tab := &Table{Columns: []string{"c"}}
	tab.AddRow("a", map[string]float64{"c": 4})
	tab.AddRow("b", map[string]float64{"c": 1})
	g := tab.GeoMeanRow()
	if g.Values["c"] < 1.99 || g.Values["c"] > 2.01 {
		t.Errorf("geomean = %v", g.Values["c"])
	}
}

func TestFormatValue(t *testing.T) {
	for _, tc := range []struct {
		in   float64
		want string
	}{
		{0, "0"},
		{0.5, "0.5000"},
		{2.25, "2.250"},
		{1e-7, "1.000e-07"},
	} {
		if got := formatValue(tc.in); got != tc.want {
			t.Errorf("formatValue(%v) = %q, want %q", tc.in, got, tc.want)
		}
	}
}
