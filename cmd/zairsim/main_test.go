package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"zac/internal/arch"
	"zac/internal/bench"
	"zac/internal/circuit"
	"zac/internal/compiler"
	"zac/internal/fidelity"
	"zac/internal/place"
	"zac/internal/resynth"
	"zac/internal/schedule"
)

// TestReportMatchesCompilerOnNativeCCZ replays a native-CCZ program on
// three-trap sites from its JSON encoding: each CCZ site holds three atoms
// at its pulse, and the report must count it as one entangling gate and
// print the compiler's own fidelity breakdown and transfer count.
func TestReportMatchesCompilerOnNativeCCZ(t *testing.T) {
	b, err := bench.ByName("multiply_n13")
	if err != nil {
		t.Fatal(err)
	}
	staged, err := resynth.PreprocessNativeCCZ(b.Build())
	if err != nil {
		t.Fatal(err)
	}
	a := arch.ReferenceTriple()
	staged = circuit.SplitRydbergStages(staged, a.TotalSites())
	zc, err := compiler.Get("zac")
	if err != nil {
		t.Fatal(err)
	}
	res, err := zc.Compile(context.Background(), staged, a, compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.MarshalIndent(res.Program, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	out, err := report("multiply_n13.json", data, a)
	if err != nil {
		t.Fatal(err)
	}
	bd := res.Breakdown
	for _, want := range []string{
		fmt.Sprintf("(%d transfers)", res.Stats.Transfers),
		fmt.Sprintf("fidelity:         %.4f (1Q %.4f · 2Q %.4f · excitation %.4f · transfer %.4f · decoherence %.4f)",
			bd.Total, bd.OneQ, bd.TwoQ, bd.Excite, bd.Transfer, bd.Decohere),
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report lacks %q:\n%s", want, out)
		}
	}
}

// fidelityLine matches the report's fidelity line: the total, then each
// factor of the paper's model.
var fidelityLine = regexp.MustCompile(`fidelity: +([0-9.]+) \(1Q ([0-9.]+) · 2Q ([0-9.]+) · excitation ([0-9.]+) · transfer ([0-9.]+) · decoherence ([0-9.]+)\)`)

// TestReportFactorsMultiplyToTotal reports on a program that excites idle
// atoms: a CZ whose move-in phase also carries four idle qubits to empty
// Rydberg sites and whose returns carry them back. The printed factors,
// excitation included, must multiply to the printed total to 4 digits.
func TestReportFactorsMultiplyToTotal(t *testing.T) {
	a := arch.Reference()
	c := circuit.New("excite", 6)
	c.Append(circuit.CZ, []int{0, 1})
	staged, err := resynth.Preprocess(c)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := place.BuildPlan(context.Background(), a, staged, place.Default())
	if err != nil {
		t.Fatal(err)
	}
	step := &plan.Steps[0]
	for q := 2; q < 6; q++ {
		site := arch.SiteRef{Row: a.Entanglement[0].SiteRows() - 1, Col: q}
		if slices.Contains(step.Sites, site) {
			t.Fatalf("site %+v hosts a gate", site)
		}
		home := place.StoragePos(plan.Initial[q])
		step.MovesIn = append(step.MovesIn, place.Move{Qubit: q, From: home, To: place.SitePos(site, 0)})
		step.MovesOut = append(step.MovesOut, place.Move{Qubit: q, From: place.SitePos(site, 0), To: home})
	}
	sched, err := schedule.BuildWithOptions(context.Background(), a, staged, plan, schedule.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := fidelity.StatsOf(a, sched.Program).Excited; got != 4 {
		t.Fatalf("program excites %d atoms, want 4", got)
	}
	data, err := json.MarshalIndent(sched.Program, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	out, err := report("excite.json", data, a)
	if err != nil {
		t.Fatal(err)
	}
	m := fidelityLine.FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no fidelity line in report:\n%s", out)
	}
	var v [6]float64
	for i := range v {
		if v[i], err = strconv.ParseFloat(m[i+1], 64); err != nil {
			t.Fatal(err)
		}
	}
	if v[3] > 0.99 {
		t.Fatalf("excitation factor %v: four excited atoms should cost about 1%%", v[3])
	}
	// Each printed value is within 5e-5 of its exact value.
	if prod := v[1] * v[2] * v[3] * v[4] * v[5]; math.Abs(prod-v[0]) > 3e-4 {
		t.Errorf("printed factors multiply to %.4f, printed total is %.4f:\n%s", prod, v[0], out)
	}
}
