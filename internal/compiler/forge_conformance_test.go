// Forge × registry conformance: every workload family's pinned smoke spec
// compiles with every registered compiler, deterministically across two
// fresh-cache runs. This is the generated-workload counterpart of
// TestRegistryConformance's benchmark subset, and it lives in an external
// test package because the forge imports the registry.
package compiler_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"zac/internal/circuit"
	"zac/internal/compiler"
	"zac/internal/core"
	"zac/internal/resynth"
	"zac/internal/workload"
)

// forgeStagedFor shapes a generated circuit for a registry compiler under
// the shared shaping rule (preprocess, split to the compiler's stage cap).
func forgeStagedFor(t *testing.T, comp compiler.Compiler, c *circuit.Circuit) *circuit.Staged {
	t.Helper()
	staged, err := resynth.Preprocess(c)
	if err != nil {
		t.Fatal(err)
	}
	if splitCap := compiler.StageSplitCap(comp); splitCap > 0 {
		staged = circuit.SplitRydbergStages(staged, splitCap)
	}
	if err := staged.Validate(); err != nil {
		t.Fatal(err)
	}
	return staged
}

// forgeResultHash digests the observable output of a compilation, the same
// shape the internal conformance test and the difftest oracle hash.
func forgeResultHash(t *testing.T, r *core.Result) string {
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

// TestForgeConformance runs every forge family's pinned smoke spec through
// every registered compiler: the compile must succeed, the result must be
// internally sane, and two runs must be byte-identical.
func TestForgeConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles every smoke spec with every registered compiler; skipped in -short")
	}
	specs := workload.SmokeSpecs()
	for _, name := range compiler.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			comp, err := compiler.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			target := compiler.TargetArch(comp)
			for _, spec := range specs {
				parsed, err := workload.Parse(spec)
				if err != nil {
					t.Fatal(err)
				}
				c, err := parsed.Generate()
				if err != nil {
					t.Fatal(err)
				}
				hashes := make([]string, 2)
				for run := 0; run < 2; run++ {
					staged := forgeStagedFor(t, comp, c)
					r, err := comp.Compile(context.Background(), staged, target, compiler.Options{})
					if err != nil {
						t.Fatalf("%s run %d: %v", spec, run, err)
					}
					if r.Program == nil {
						t.Fatalf("%s: nil Program", spec)
					}
					if r.Breakdown.Total <= 0 || r.Breakdown.Total > 1 {
						t.Errorf("%s: fidelity %v outside (0,1]", spec, r.Breakdown.Total)
					}
					if r.Stats.Duration <= 0 {
						t.Errorf("%s: stats not populated: %+v", spec, r.Stats)
					}
					if len(r.Passes) == 0 {
						t.Errorf("%s: no pass timings", spec)
					}
					hashes[run] = forgeResultHash(t, r)
				}
				if hashes[0] != hashes[1] {
					t.Errorf("%s: nondeterministic output across fresh-cache runs:\n  %s\n  %s",
						spec, hashes[0], hashes[1])
				}
			}
		})
	}
}
