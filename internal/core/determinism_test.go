package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"zac/internal/arch"
	"zac/internal/bench"
	"zac/internal/place"
	"zac/internal/resynth"
)

// The golden determinism test pins the placement pipeline bit-for-bit: the
// hashes in testdata/determinism.golden were generated from the pre-PR-3
// implementation (dense JV matching, full-recompute SA cost, map-based
// planner state), and the optimized hot path must reproduce the exact same
// plans and ZAIR programs. Regenerate with `go test ./internal/core -run
// TestGoldenDeterminism -update` — but only after establishing that an
// output change is intended.

var updateGolden = flag.Bool("update", false, "rewrite testdata/determinism.golden from the current implementation")

const goldenPath = "testdata/determinism.golden"

// goldenSubset mirrors the repo-level benchmark subset (bench_test.go).
var goldenSubset = []string{"bv_n14", "ghz_n23", "ising_n42", "qft_n18", "wstate_n27"}

func hashBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// hashPlan digests the placement-relevant parts of a plan (initial traps and
// per-stage steps); Arch and Staged pointers are inputs, not outputs.
func hashPlan(t *testing.T, p *place.Plan) string {
	t.Helper()
	data, err := json.Marshal(struct {
		Initial []arch.TrapRef
		Steps   []place.Step
	}{p.Initial, p.Steps})
	if err != nil {
		t.Fatal(err)
	}
	return hashBytes(data)
}

func hashProgram(t *testing.T, r *Result) string {
	t.Helper()
	data, err := json.Marshal(r.Program)
	if err != nil {
		t.Fatal(err)
	}
	return hashBytes(data)
}

// collectDeterminismHashes compiles the golden corpus and returns a stable
// key→hash map covering SAInitialWithCost, BuildPlan, and the final ZAIR program.
func collectDeterminismHashes(t *testing.T) map[string]string {
	t.Helper()
	a := arch.Reference()
	got := map[string]string{}

	// Every subset circuit under the full ZAC preset (plan + ZAIR + SA).
	for _, name := range goldenSubset {
		bm, err := bench.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		c := bm.Build()
		staged, err := resynth.Preprocess(c)
		if err != nil {
			t.Fatal(err)
		}
		sa, _, err := place.SAInitialWithCost(a, staged, 1000, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatal(err)
		}
		got["sainitial/"+name] = hashBytes([]byte(fmt.Sprintf("%v", sa)))

		res, err := CompileStaged(staged, a, OptionsFor(SettingSADynPlaceReuse))
		if err != nil {
			t.Fatal(err)
		}
		got["plan/"+name+"/"+SettingSADynPlaceReuse] = hashPlan(t, res.Plan)
		got["zair/"+name+"/"+SettingSADynPlaceReuse] = hashProgram(t, res)
	}

	// Two representative circuits under every ablation preset, so the
	// non-SA and non-reuse paths stay pinned too.
	for _, name := range []string{"bv_n14", "ghz_n23"} {
		bm, err := bench.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, setting := range []string{SettingVanilla, SettingDynPlace, SettingDynPlaceReuse, SettingSADynPlaceReuse} {
			res, err := Compile(bm.Build(), a, OptionsFor(setting))
			if err != nil {
				t.Fatal(err)
			}
			got["plan/"+name+"/"+setting] = hashPlan(t, res.Plan)
			got["zair/"+name+"/"+setting] = hashProgram(t, res)
		}
	}

	// Advanced reuse exercises the held-site and cycle-breaking paths of the
	// transition solver.
	for _, name := range []string{"ghz_n23", "qft_n18"} {
		bm, err := bench.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		opts := Default()
		opts.Place.AdvancedReuse = true
		res, err := Compile(bm.Build(), a, opts)
		if err != nil {
			t.Fatal(err)
		}
		got["plan/"+name+"/advreuse"] = hashPlan(t, res.Plan)
		got["zair/"+name+"/advreuse"] = hashProgram(t, res)
	}
	return got
}

// TestGoldenDeterminism asserts that the optimized placement hot path
// produces plans and ZAIR programs byte-identical to the pre-refactor
// implementation (pinned as hashes in testdata/determinism.golden).
func TestGoldenDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("golden corpus compiles the five-circuit subset; skipped in -short")
	}
	got := collectDeterminismHashes(t)

	if *updateGolden {
		keys := make([]string, 0, len(got))
		for k := range got {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		ordered := make(map[string]string, len(got))
		for _, k := range keys {
			ordered[k] = got[k]
		}
		data, err := json.MarshalIndent(ordered, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d hashes to %s", len(got), goldenPath)
		return
	}

	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden has %d entries, current run produced %d", len(want), len(got))
	}
	for k, w := range want {
		g, ok := got[k]
		if !ok {
			t.Errorf("%s: missing from current run", k)
			continue
		}
		if g != w {
			t.Errorf("%s: hash mismatch\n  golden:  %s\n  current: %s", k, w, g)
		}
	}
}
