// Package compiler is the unified compiler seam of the reproduction: one
// interface over ZAC's ablation presets (paper Fig. 11), the published
// neutral-atom baselines (Enola, Atomique, NALAC — §VII-A), and the
// superconducting SABRE router, a process-wide registry that resolves them
// by name, and Key, the one cache identity of a compilation. The experiment
// harness, the zac-serve HTTP service, and every CLI route their
// compilations through this package, so a new backend registered here is
// immediately selectable everywhere (`zac -compiler`, `zac-bench
// -compiler`, `zac-serve ?compiler=`), and every compile cache keys its
// results through Key.
package compiler

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"zac/internal/arch"
	"zac/internal/circuit"
	"zac/internal/core"
)

// Options carries the cross-compiler knobs of one compilation. The zero
// value compiles with the compiler's preset configuration.
type Options struct {
	// Core overrides the ZAC pipeline configuration (nil = the compiler's
	// preset). Baseline compilers ignore it.
	Core *core.Options
	// SARestarts, when positive, overrides the preset's annealing restart
	// count for ZAC-family compilers (place.Options.SARestarts). Values > 1
	// change the produced plan; Key reflects them. Baseline compilers
	// ignore it.
	SARestarts int
	// Workers, when positive, bounds one compilation's intra-compile
	// parallelism for ZAC-family compilers (place.Options.Workers). It never
	// changes outputs, so Key leaves it out. Baseline compilers ignore it.
	Workers int
}

// Compiler compiles an already-preprocessed staged circuit for an
// architecture. Implementations must be deterministic: the same staged
// circuit, architecture, and options always produce the same result.
type Compiler interface {
	// Name returns the compiler's canonical registry name.
	Name() string
	// Compile compiles staged for a. The context is plumbed through the
	// pass pipeline, so cancellation stops a compilation mid-pass.
	Compile(ctx context.Context, staged *circuit.Staged, a *arch.Architecture, opts Options) (*core.Result, error)
}

// DefaultArcher is implemented by compilers that target a specific
// architecture when the caller does not supply one (the monolithic
// baselines). Compilers without it default to the paper's zoned reference
// architecture.
type DefaultArcher interface {
	DefaultArch() *arch.Architecture
}

// StageSplitter is implemented by compilers whose staged input should be
// split to Rydberg-site capacity before compilation. The SC routers consume
// the flat staging and return false.
type StageSplitter interface {
	SplitStages() bool
}

// TargetArch returns the architecture a registry compiler compiles for when
// the caller expresses no preference: the compiler's DefaultArch if it
// declares one, else the paper's reference architecture.
func TargetArch(c Compiler) *arch.Architecture {
	if da, ok := c.(DefaultArcher); ok {
		return da.DefaultArch()
	}
	return arch.Reference()
}

// WantsSplit reports whether a registry compiler's staged input should be
// split to site capacity (true for every compiler that does not opt out via
// StageSplitter).
func WantsSplit(c Compiler) bool {
	if ss, ok := c.(StageSplitter); ok {
		return ss.SplitStages()
	}
	return true
}

// StageSplitCap returns the Rydberg-stage gate cap a compiler's staged
// input is split to — the single shaping rule every surface (CLI, serve,
// harness) shares so the same compiler name yields the same numbers
// everywhere. Baselines split to the zoned reference architecture's site
// capacity, the paper's evaluation shaping; SC routers consume flat
// staging (0 = no split); the ZAC family returns 0 here because its CLI
// and service surfaces keep unsplit staging for byte-stable ZAIR (the
// experiment harness splits ZAC input itself, sharing one staged circuit
// across all neutral-atom columns).
func StageSplitCap(c Compiler) int {
	if _, zacFamily := Setting(c.Name()); zacFamily {
		return 0
	}
	if !WantsSplit(c) {
		return 0
	}
	return arch.Reference().TotalSites()
}

var (
	regMu    sync.RWMutex
	registry = map[string]Compiler{}
	aliases  = map[string]string{}
)

// Register adds a compiler to the process-wide registry under its canonical
// name, panicking on duplicates (registration is an init-time affair).
func Register(c Compiler) {
	regMu.Lock()
	defer regMu.Unlock()
	name := canonical(c.Name())
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("compiler: duplicate registration of %q", name))
	}
	registry[name] = c
}

// RegisterAlias maps an alternative spelling (e.g. the paper's ablation
// legend "SA+dynPlace+reuse") onto a canonical registry name.
func RegisterAlias(alias, name string) {
	regMu.Lock()
	defer regMu.Unlock()
	aliases[canonical(alias)] = canonical(name)
}

// canonical normalizes a compiler name for lookup: lower-case, trimmed.
func canonical(name string) string { return strings.ToLower(strings.TrimSpace(name)) }

// Get resolves a compiler by name (case-insensitive; aliases accepted).
func Get(name string) (Compiler, error) {
	regMu.RLock()
	defer regMu.RUnlock()
	key := canonical(name)
	if target, ok := aliases[key]; ok {
		key = target
	}
	c, ok := registry[key]
	if !ok {
		names := namesLocked()
		return nil, fmt.Errorf("compiler: unknown compiler %q (have %s)", name, strings.Join(names, ", "))
	}
	return c, nil
}

// Names returns the sorted canonical names of every registered compiler.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	return namesLocked()
}

func namesLocked() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
