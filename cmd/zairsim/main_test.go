package main

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"zac/internal/arch"
	"zac/internal/bench"
	"zac/internal/circuit"
	"zac/internal/compiler"
	"zac/internal/resynth"
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
		fmt.Sprintf("fidelity:         %.4f (1Q %.4f · 2Q %.4f · transfer %.4f · decoherence %.4f)",
			bd.Total, bd.OneQ, bd.TwoQ, bd.Transfer, bd.Decohere),
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report lacks %q:\n%s", want, out)
		}
	}
}
