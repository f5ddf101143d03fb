package compiler

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"slices"
	"testing"

	"zac/internal/arch"
	"zac/internal/bench"
	"zac/internal/circuit"
	"zac/internal/core"
	"zac/internal/resynth"
	"zac/internal/zair"
)

// conformanceSubset mirrors the golden determinism corpus (bench_test.go,
// internal/core/determinism_test.go).
var conformanceSubset = []string{"bv_n14", "ghz_n23", "ising_n42", "qft_n18", "wstate_n27"}

// stagedFor shapes a benchmark's input the way the evaluation harness does:
// split to the zoned reference capacity for splitters, flat for the rest.
func stagedFor(t *testing.T, c Compiler, name string) *circuit.Staged {
	t.Helper()
	b, err := bench.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	staged, err := resynth.Preprocess(b.Build())
	if err != nil {
		t.Fatal(err)
	}
	if WantsSplit(c) {
		staged = circuit.SplitRydbergStages(staged, arch.Reference().TotalSites())
	}
	return staged
}

// resultHash digests the observable output of a compilation: the program,
// the statistics, and the fidelity breakdown.
func resultHash(t *testing.T, r *core.Result) string {
	t.Helper()
	data, err := json.Marshal(struct {
		Program any
		Stats   any
		Brk     any
	}{r.Program, r.Stats, r.Breakdown})
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// checkPulses replays a ZAC-family program and requires its pulses to run
// the staged circuit. The pulses of one step (consecutive rydberg
// instructions) pair with the next Rydberg stage that has gates: the atoms
// sharing each pulsed site must be the qubits of one of its gates, and
// every gate must get a site. No site may hold more atoms than it has
// traps, and no atom may sit alone in a pulsed zone (Stats.Excited is 0).
func checkPulses(a *arch.Architecture, r *core.Result) error {
	var stages [][]circuit.Gate
	for _, st := range r.Staged.Stages {
		if st.Kind == circuit.RydbergStage && len(st.Gates) > 0 {
			stages = append(stages, st.Gates)
		}
	}
	rp := zair.NewReplay(r.Program)
	var pulsed []string // the current step's site groups
	var err error
	step := 0
	endStep := func() {
		if pulsed == nil || err != nil {
			return
		}
		if step >= len(stages) {
			err = fmt.Errorf("pulse step %d has no Rydberg stage left", step)
			return
		}
		var want []string
		for _, g := range stages[step] {
			want = append(want, fmt.Sprint(slices.Sorted(slices.Values(g.Qubits))))
		}
		slices.Sort(want)
		slices.Sort(pulsed)
		if !slices.Equal(pulsed, want) {
			err = fmt.Errorf("pulse step %d exposes sites %v, its stage's gates act on %v", step, pulsed, want)
		}
		step++
		pulsed = nil
	}
	for _, inst := range r.Program.Instructions {
		v, ok := inst.(zair.Rydberg)
		if !ok {
			endStep()
			if job, ok := inst.(zair.RearrangeJob); ok {
				rp.Move(job)
			}
			continue
		}
		rp.Pulse(v.ZoneID, a.EntanglementZoneOf, func(qs []int) {
			if slots := a.Entanglement[v.ZoneID].SiteSlots(); len(qs) > slots && err == nil {
				err = fmt.Errorf("a site of zone %d holds qubits %v, more than its %d traps", v.ZoneID, qs, slots)
			}
			pulsed = append(pulsed, fmt.Sprint(slices.Sorted(slices.Values(qs))))
		})
	}
	endStep()
	switch {
	case err != nil:
		return err
	case step != len(stages):
		return fmt.Errorf("%d pulse steps for %d Rydberg stages with gates", step, len(stages))
	case r.Stats.Excited != 0:
		return fmt.Errorf("%d idle atoms excited", r.Stats.Excited)
	}
	return nil
}

// TestRegistryConformance is the registry-wide contract: every registered
// compiler compiles the 5-circuit determinism subset, returns a non-nil
// Program with sane Stats and fidelity, reports per-pass timings, and is
// deterministic across two runs. A ZAC-family program's pulses must run its
// staged circuit (checkPulses).
func TestRegistryConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the five-circuit subset with every registered compiler; skipped in -short")
	}
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			c, err := Get(name)
			if err != nil {
				t.Fatal(err)
			}
			if c.Name() != name {
				t.Fatalf("Name() = %q, registered as %q", c.Name(), name)
			}
			target := TargetArch(c)
			for _, bn := range conformanceSubset {
				hashes := make([]string, 2)
				for run := 0; run < 2; run++ {
					staged := stagedFor(t, c, bn)
					r, err := c.Compile(context.Background(), staged, target, Options{})
					if err != nil {
						t.Fatalf("%s run %d: %v", bn, run, err)
					}
					if r.Program == nil {
						t.Fatalf("%s: nil Program", bn)
					}
					if r.Program.NumQubits != staged.NumQubits {
						t.Errorf("%s: program has %d qubits, staged %d", bn, r.Program.NumQubits, staged.NumQubits)
					}
					if r.Stats.Busy == nil || r.Stats.Duration <= 0 {
						t.Errorf("%s: stats not populated: %+v", bn, r.Stats)
					}
					if r.Breakdown.Total <= 0 || r.Breakdown.Total > 1 {
						t.Errorf("%s: fidelity %v outside (0,1]", bn, r.Breakdown.Total)
					}
					if len(r.Passes) == 0 {
						t.Errorf("%s: no pass timings", bn)
					}
					if _, zacFamily := Setting(name); zacFamily {
						if err := checkPulses(target, r); err != nil {
							t.Errorf("%s: %v", bn, err)
						}
					}
					hashes[run] = resultHash(t, r)
				}
				if hashes[0] != hashes[1] {
					t.Errorf("%s: nondeterministic output across runs:\n  %s\n  %s", bn, hashes[0], hashes[1])
				}
			}
		})
	}
}

// TestAliasesResolve pins the Fig. 11 legend spellings (and case
// variations) to their canonical compilers.
func TestAliasesResolve(t *testing.T) {
	for alias, want := range map[string]string{
		core.SettingVanilla:         "zac-vanilla",
		core.SettingDynPlace:        "zac-dynplace",
		core.SettingDynPlaceReuse:   "zac-dynplace-reuse",
		core.SettingSADynPlaceReuse: "zac",
		"ZAC":                       "zac",
		"  Enola ":                  "enola",
	} {
		c, err := Get(alias)
		if err != nil {
			t.Errorf("Get(%q): %v", alias, err)
			continue
		}
		if c.Name() != want {
			t.Errorf("Get(%q) = %s, want %s", alias, c.Name(), want)
		}
	}
	if _, err := Get("no-such-compiler"); err == nil {
		t.Error("unknown compiler resolved")
	}
}

// TestZACMatchesCompileStaged pins the registry's zac compiler to
// core.CompileStaged: same staged input, byte-identical program.
func TestZACMatchesCompileStaged(t *testing.T) {
	b, err := bench.ByName("bv_n14")
	if err != nil {
		t.Fatal(err)
	}
	staged, err := resynth.Preprocess(b.Build())
	if err != nil {
		t.Fatal(err)
	}
	a := arch.Reference()
	direct, err := core.CompileStaged(staged, a, core.Default())
	if err != nil {
		t.Fatal(err)
	}
	zc, err := Get("zac")
	if err != nil {
		t.Fatal(err)
	}
	viaRegistry, err := zc.Compile(context.Background(), staged, a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(direct.Program)
	got, _ := json.Marshal(viaRegistry.Program)
	if string(want) != string(got) {
		t.Fatal("registry zac output differs from core.CompileStaged")
	}
}

// TestCompileCancelled verifies cancellation propagates through the
// pipeline for every registered compiler.
func TestCompileCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, name := range Names() {
		c, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		staged := stagedFor(t, c, "bv_n14")
		if _, err := c.Compile(ctx, staged, TargetArch(c), Options{}); err == nil {
			t.Errorf("%s: cancelled compile succeeded", name)
		}
	}
}
