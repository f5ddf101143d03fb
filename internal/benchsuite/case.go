// Package benchsuite is the performance observatory of the reproduction
// (RZBENCH/openhpca-style). Kernel numbers come from the go-test
// benchmarks: Ingest turns `go test -bench -benchmem` output into records.
// Application numbers come from a declarative run matrix of compilations
// (forge workload families × registry compilers × architectures), executed
// through the engine worker pool with warm-up and repetition control. Every
// record is stamped with a machine fingerprint and a commit, appended to a
// persistent JSON-lines store, and consumed by trend queries, markdown/HTML
// report generators, and a benchstat-style Mann-Whitney regression gate —
// so "measurably faster" is always a measured, statistically gated claim.
package benchsuite

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"zac/internal/arch"
	"zac/internal/circuit"
	"zac/internal/compiler"
	"zac/internal/core"
	"zac/internal/resynth"
	"zac/internal/workload"
)

// Kind classifies a record: a go-test kernel benchmark or an
// application-level compilation.
type Kind string

// The record kinds. KindMicro records come from Ingest, one per go-test
// benchmark result line. KindPass records are never declared as cases: the
// runner derives them from a compile cell's pass probe, one
// "<case>/pass/<name>" record per pipeline pass.
const (
	KindMicro   Kind = "micro"
	KindCompile Kind = "compile"
	KindPass    Kind = "pass"
)

// Case is one cell of the run matrix: a named operation the runner times
// for a configurable number of repetitions. Setup cost (circuit generation,
// preprocessing) is paid once outside the timed region.
type Case struct {
	// Name is the stable identifier of the cell, e.g.
	// "compile/zac/ref/rb:n=24,depth=16,seed=11". Store trends and gate
	// pairings key on it.
	Name string
	// Kind is the case's class.
	Kind Kind
	// ArchFP is the arch.Fingerprint of the architecture the case targets
	// ("" for cases without one).
	ArchFP string
	// InnerIters is the number of operations folded into one timed
	// repetition; sub-millisecond operations use > 1 so a repetition rises
	// above timer granularity. Recorded ns/op samples are per operation.
	InnerIters int
	// setup builds the case's op closure; called once per run, outside
	// the timed region.
	setup func() (func(ctx context.Context) error, error)
	// passes, when non-nil, reports the per-pass timings of the most recent
	// op invocation. The runner samples it after every timed repetition and
	// emits one satellite "<case>/pass/<name>" record per pass, so the gate
	// can name the pass behind a compile-level regression.
	passes func() []core.PassTiming
}

// Architectures names the target architectures the compile matrix can
// sweep. "default" resolves per compiler (its DefaultArch, or the paper's
// zoned reference); the named entries force a specific target and apply to
// the ZAC family only — baselines and SC routers are monolithic-by-design
// and always compile for their own target.
var Architectures = map[string]func() *arch.Architecture{
	"ref":    arch.Reference,
	"triple": arch.ReferenceTriple,
	"mono":   arch.Monolithic,
}

// ArchNames lists the selectable architecture names, sorted, with "default"
// first.
func ArchNames() []string {
	names := []string{"default"}
	var rest []string
	for n := range Architectures {
		rest = append(rest, n)
	}
	sort.Strings(rest)
	return append(names, rest...)
}

// Compile expands the application-level matrix: every forge workload spec ×
// every named registry compiler × every named architecture. Specs are
// canonicalized so the same workload always produces the same case name.
// Non-ZAC compilers pin their own target architecture, so for them only the
// "default" arch cell is emitted (a forced-arch cell would silently measure
// the same thing twice).
func Compile(specs, compilers, archs []string) ([]Case, error) {
	if len(archs) == 0 {
		archs = []string{"default"}
	}
	var cases []Case
	for _, spec := range specs {
		parsed, err := workload.Parse(spec)
		if err != nil {
			return nil, err
		}
		canon := parsed.Canonical()
		for _, name := range compilers {
			comp, err := compiler.Get(name)
			if err != nil {
				return nil, err
			}
			_, zacFamily := compiler.Setting(comp.Name())
			for _, archName := range archs {
				target, forced, err := resolveArch(comp, archName)
				if err != nil {
					return nil, err
				}
				if forced && !zacFamily {
					continue // monolithic compilers ignore forced targets
				}
				comp, parsed, canon, archName, target := comp, parsed, canon, archName, target
				// lastPasses carries the most recent compilation's per-pass
				// timings from the op closure to the pass probe; each cell
				// owns its own variable and the runner calls op and probe
				// from one goroutine, so no synchronization is needed.
				var lastPasses []core.PassTiming
				cases = append(cases, Case{
					Name:       fmt.Sprintf("compile/%s/%s/%s", comp.Name(), archName, canon),
					Kind:       KindCompile,
					ArchFP:     target.Fingerprint(),
					InnerIters: 1,
					passes:     func() []core.PassTiming { return lastPasses },
					setup: func() (func(context.Context) error, error) {
						c, err := parsed.Generate()
						if err != nil {
							return nil, err
						}
						staged, err := resynth.Preprocess(c)
						if err != nil {
							return nil, err
						}
						if cap := compiler.StageSplitCap(comp); cap > 0 {
							staged = circuit.SplitRydbergStages(staged, cap)
						}
						if err := staged.Validate(); err != nil {
							return nil, fmt.Errorf("%s: split staging invalid: %w", canon, err)
						}
						return func(ctx context.Context) error {
							r, err := comp.Compile(ctx, staged, target, compiler.Options{})
							if r != nil {
								lastPasses = r.Passes
							}
							return err
						}, nil
					},
				})
			}
		}
	}
	return cases, nil
}

// resolveArch maps an architecture name to a concrete target for one
// compiler. "default" resolves to compiler.TargetArch; named entries force
// that architecture (forced=true).
func resolveArch(c compiler.Compiler, name string) (*arch.Architecture, bool, error) {
	name = strings.ToLower(strings.TrimSpace(name))
	if name == "" || name == "default" {
		return compiler.TargetArch(c), false, nil
	}
	build, ok := Architectures[name]
	if !ok {
		return nil, false, fmt.Errorf("benchsuite: unknown architecture %q (have %s)", name, strings.Join(ArchNames(), ", "))
	}
	return build(), true, nil
}

// DefaultSpecs is the forge sweep of the full matrix: one pinned spec per
// family at paper-suite-comparable sizes (the same pins the experiment
// harness and fuzzer use).
func DefaultSpecs() []string {
	return []string{
		"clifford:n=24,gates=220,t=20,seed=11",
		"rb:n=24,depth=16,seed=11",
		"shuffle:n=32,depth=12,seed=11",
		"qaoa:n=32,p=2,seed=11",
		"ising:n=64,layers=2",
	}
}

// SmokeSpecs is the tiny forge subset of the smoke matrix — small enough
// that a full smoke run (including repetitions) stays in CI-seconds.
func SmokeSpecs() []string {
	return []string{"rb:n=8,depth=4,seed=1", "ising:n=12,layers=1"}
}

// Matrix expands the compile matrix over the given specs, compilers and
// architectures; empty specs default to DefaultSpecs and empty compilers
// to "zac".
func Matrix(specs, compilers, archs []string) ([]Case, error) {
	if len(specs) == 0 {
		specs = DefaultSpecs()
	}
	if len(compilers) == 0 {
		compilers = []string{"zac"}
	}
	return Compile(specs, compilers, archs)
}

// SmokeMatrix is the few-second matrix CI runs: ZAC over the smoke specs
// on the default architecture.
func SmokeMatrix() ([]Case, error) {
	return Compile(SmokeSpecs(), []string{"zac"}, nil)
}
