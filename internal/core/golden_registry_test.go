// The registry-side extension of the golden determinism suite. ZAC output
// routed through the compiler registry and the pass pipeline must stay
// byte-identical to the plans and programs pinned in
// testdata/determinism.golden, and every registry compiler's output on the
// 17 paper circuits (plus forge-scale and restart rows for the ZAC family)
// is pinned in testdata/registry.golden. It lives in an
// external test package because internal/compiler imports core.
package core_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"testing"

	"zac/internal/arch"
	"zac/internal/bench"
	"zac/internal/circuit"
	"zac/internal/compiler"
	"zac/internal/core"
	"zac/internal/place"
	"zac/internal/resynth"
	"zac/internal/workload"
)

const registryGoldenPath = "testdata/registry.golden"

// restartCircuit is the paper circuit every ZAC preset also compiles with
// four annealing restarts.
const restartCircuit = "qft_n18"

// forgeScaleSpecs mirror perfbench's forge-scale inputs (forgeSpecs in
// perfbench/main.go): large circuits whose transitions exercise placement
// at a size the paper subset does not reach.
var forgeScaleSpecs = []string{
	"qaoa:n=128,p=2,seed=1",
	"qaoa:n=192,p=2,seed=1",
	"ising:n=256,layers=4",
	"shuffle:n=128,depth=40,seed=1",
	"rb:n=64,depth=30,seed=1",
	"clifford:n=64,gates=3000,seed=1",
}

func readGolden(t *testing.T, path string) map[string]string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	return want
}

func sha(t *testing.T, v any) string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// registryDigest is the golden value of one compile: the sha256 of the
// program as `zac -out` writes it, then fidelity and duration to the last
// bit.
func registryDigest(t *testing.T, r *core.Result) string {
	t.Helper()
	data, err := json.MarshalIndent(r.Program, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	return fmt.Sprintf("%s fid=%.17g dur=%.17g", hex.EncodeToString(sum[:]), r.Breakdown.Total, r.Duration)
}

// TestRegistryMatchesGolden compiles the 17 paper circuits through every
// registry compiler, shaped as `zac -out` and zac-serve shape it (the
// compiler's target architecture, staging split to its StageSplitCap), and
// the forge-scale specs through zac and zac-advreuse at Workers 1 and 2,
// split to site capacity as `zac-bench -workload` and perfbench split them,
// and restartCircuit through every ZAC preset with SARestarts 4. On the golden
// subset the zac compiler's plans and programs must match the hashes
// TestGoldenDeterminism pins for core.CompileStaged, so the registry seam
// cannot drift from the direct entry point; every compiler's program,
// fidelity and duration must match testdata/registry.golden. The forge
// rows pin both schedule paths to one hash: at Workers 1 the pipeline
// schedules after placement, at Workers 2 (every forge spec is above the
// overlap gate) it schedules each step while placement solves the next,
// and each spec's workers=1 and workers=2 rows must hold the same digest. Run
// with -update to rewrite the golden; the keys whose values changed are
// logged.
func TestRegistryMatchesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("golden corpus compiles the paper suite; skipped in -short")
	}
	determinism := readGolden(t, "testdata/determinism.golden")
	got := map[string]string{}
	for _, bm := range bench.All() {
		name := bm.Name
		staged, err := resynth.Preprocess(bm.Build())
		if err != nil {
			t.Fatal(err)
		}
		for _, cname := range compiler.Names() {
			c, err := compiler.Get(cname)
			if err != nil {
				t.Fatal(err)
			}
			in := circuit.SplitRydbergStages(staged, compiler.StageSplitCap(c))
			res, err := c.Compile(context.Background(), in, compiler.TargetArch(c), compiler.Options{})
			if err != nil {
				t.Fatalf("%s/%s: %v", cname, name, err)
			}
			got[cname+"/"+name] = registryDigest(t, res)
			wantPlan, golden := determinism["plan/"+name+"/"+core.SettingSADynPlaceReuse]
			if cname != "zac" || !golden {
				continue
			}
			planHash := sha(t, struct {
				Initial []arch.TrapRef
				Steps   []place.Step
			}{res.Plan.Initial, res.Plan.Steps})
			if wantPlan != planHash {
				t.Errorf("%s: plan hash through registry differs from golden\n  golden:  %s\n  current: %s", name, wantPlan, planHash)
			}
			if g, progHash := determinism["zair/"+name+"/"+core.SettingSADynPlaceReuse], sha(t, res.Program); g != progHash {
				t.Errorf("%s: ZAIR hash through registry differs from golden\n  golden:  %s\n  current: %s", name, g, progHash)
			}
		}
	}
	for _, spec := range forgeScaleSpecs {
		c, err := workload.Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		staged, err := resynth.Preprocess(c)
		if err != nil {
			t.Fatal(err)
		}
		for _, cname := range []string{"zac", "zac-advreuse"} {
			zc, err := compiler.Get(cname)
			if err != nil {
				t.Fatal(err)
			}
			a := compiler.TargetArch(zc)
			in := circuit.SplitRydbergStages(staged, a.TotalSites())
			for _, workers := range []int{1, 2} {
				res, err := zc.Compile(context.Background(), in, a, compiler.Options{Workers: workers})
				if err != nil {
					t.Fatalf("%s/%s: %v", cname, spec, err)
				}
				got[fmt.Sprintf("%s/%s/workers=%d", cname, spec, workers)] = registryDigest(t, res)
			}
			if w1, w2 := got[cname+"/"+spec+"/workers=1"], got[cname+"/"+spec+"/workers=2"]; w1 != w2 {
				t.Errorf("%s/%s: overlapped schedule differs from sequential\n  workers=1: %s\n  workers=2: %s", cname, spec, w1, w2)
			}
		}
	}
	// Restart racing: four annealing chains per ZAC preset on one paper
	// circuit, shaped as the paper rows above.
	restartBench, err := bench.ByName(restartCircuit)
	if err != nil {
		t.Fatal(err)
	}
	restartCirc, err := resynth.Preprocess(restartBench.Build())
	if err != nil {
		t.Fatal(err)
	}
	for _, cname := range compiler.Names() {
		if _, zacFamily := compiler.Setting(cname); !zacFamily {
			continue
		}
		c, err := compiler.Get(cname)
		if err != nil {
			t.Fatal(err)
		}
		in := circuit.SplitRydbergStages(restartCirc, compiler.StageSplitCap(c))
		res, err := c.Compile(context.Background(), in, compiler.TargetArch(c), compiler.Options{SARestarts: 4})
		if err != nil {
			t.Fatalf("%s/%s: %v", cname, restartCircuit, err)
		}
		got[fmt.Sprintf("%s/%s/sa_restarts=4", cname, restartCircuit)] = registryDigest(t, res)
	}

	if f := flag.Lookup("update"); f != nil && f.Value.String() == "true" {
		old := map[string]string{}
		if data, err := os.ReadFile(registryGoldenPath); err == nil {
			_ = json.Unmarshal(data, &old)
		}
		keys := make([]string, 0, len(got))
		for k := range got {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if old[k] != got[k] {
				t.Logf("changed: %s", k)
			}
		}
		data, err := json.MarshalIndent(got, "", "  ") // map keys marshal sorted
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(registryGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readGolden(t, registryGoldenPath)
	if len(want) != len(got) {
		t.Errorf("golden has %d entries, current run produced %d", len(want), len(got))
	}
	for k, w := range want {
		if g, ok := got[k]; !ok {
			t.Errorf("%s: missing from current run", k)
		} else if g != w {
			t.Errorf("%s: digest mismatch\n  golden:  %s\n  current: %s", k, w, g)
		}
	}
}
