package workload

import (
	"context"
	"fmt"
	"math"

	"zac/internal/circuit"
	"zac/internal/compiler"
	"zac/internal/qasm"
	"zac/internal/resynth"
	"zac/internal/sim"
	"zac/internal/zair"
)

// FuzzOptions configures a round-trip run. The zero value checks every
// registry compiler, simulates circuits up to 10 qubits, and shrinks
// failures with a 150-compile budget.
type FuzzOptions struct {
	// Compilers names the registry compilers to round-trip through; empty
	// selects the whole registry.
	Compilers []string
	// SimMax caps statevector equivalence checks (qubits; ≤ 0 selects 10).
	SimMax int
	// NoShrink disables greedy minimization of failing inputs.
	NoShrink bool
	// MaxShrinkChecks bounds the predicate evaluations (each one a full
	// compile) spent minimizing one failure (≤ 0 selects 150).
	MaxShrinkChecks int
}

func (o FuzzOptions) simMax() int {
	if o.SimMax <= 0 {
		return 10
	}
	return o.SimMax
}

func (o FuzzOptions) maxShrinkChecks() int {
	if o.MaxShrinkChecks <= 0 {
		return 150
	}
	return o.MaxShrinkChecks
}

func (o FuzzOptions) compilers() ([]compiler.Compiler, error) {
	names := o.Compilers
	if len(names) == 0 {
		names = compiler.Names()
	}
	out := make([]compiler.Compiler, 0, len(names))
	for _, n := range names {
		c, err := compiler.Get(n)
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}

// Failure is one invariant violation found by the round-trip harness,
// carrying the greedily minimized reproduction.
type Failure struct {
	// Spec is the canonical workload spec that produced the input.
	Spec string
	// Stage identifies the failing check: "generate", "qasm", "resynth", or
	// a registry compiler name.
	Stage string
	// Err is the violation.
	Err error
	// Reduced is the smallest known failing circuit: greedily minimized
	// when shrinking ran, the original input with NoShrink, nil only when
	// no circuit was generated at all (stage "generate").
	Reduced *circuit.Circuit
	// QASM is the OpenQASM source of the smallest known failing input.
	QASM string
}

// String renders the failure as a self-contained repro report.
func (f Failure) String() string {
	out := fmt.Sprintf("spec %s: stage %s: %v", f.Spec, f.Stage, f.Err)
	if f.QASM != "" {
		out += "\nminimized repro:\n" + f.QASM
	}
	return out
}

// RoundTrip runs the full generate → emit/parse → compile → verify loop for
// one spec: the circuit is built, round-tripped through the QASM
// writer/parser, preprocessed and semantically checked against a statevector
// simulation (small widths), then compiled through every selected registry
// compiler with invariant verification — ZAIR replay (qubit conservation, no
// AOD conflicts, tone ordering), gate-set legality of the staged program,
// and fidelity sanity. Each failing check is greedily shrunk to a minimal
// reproducing circuit before being reported. The returned error is non-nil
// only for harness-level problems (unknown compiler, context cancellation) —
// invariant violations come back as Failures.
func RoundTrip(ctx context.Context, spec string, opts FuzzOptions) ([]Failure, error) {
	comps, err := opts.compilers()
	if err != nil {
		return nil, err
	}
	parsed, err := Parse(spec)
	if err != nil {
		return []Failure{{Spec: spec, Stage: "generate", Err: err}}, nil
	}
	canon := parsed.Canonical()
	c, err := parsed.Generate()
	if err != nil {
		return []Failure{{Spec: canon, Stage: "generate", Err: err}}, nil
	}

	var failures []Failure
	report := func(stage string, rawCheck func(*circuit.Circuit) error) error {
		check := contained(rawCheck)
		err := check(c)
		if err == nil {
			return nil
		}
		if ctxErr := ctx.Err(); ctxErr != nil {
			return ctxErr
		}
		f := Failure{Spec: canon, Stage: stage, Err: err, Reduced: c, QASM: qasm.Write(c)}
		if !opts.NoShrink {
			f.Reduced = Shrink(c, func(cand *circuit.Circuit) bool {
				return ctx.Err() == nil && check(cand) != nil
			}, opts.maxShrinkChecks())
			// Re-derive the violation from the minimized input for the
			// report — but never let a cancellation that raced the shrink
			// replace the genuine invariant error already in hand.
			if e := check(f.Reduced); e != nil && ctx.Err() == nil {
				f.Err = e
			}
			f.QASM = qasm.Write(f.Reduced)
		}
		failures = append(failures, f)
		return nil
	}

	if err := report("qasm", checkQASM(opts)); err != nil {
		return failures, err
	}
	if err := report("resynth", checkResynth(opts)); err != nil {
		return failures, err
	}
	for _, comp := range comps {
		if err := report(comp.Name(), checkCompile(ctx, comp)); err != nil {
			return failures, err
		}
	}
	return failures, nil
}

// contained wraps a check so a panic anywhere inside it — the compilers are
// being fed adversarial inputs, and e.g. circuit.NewGate panics by contract
// on malformed gates — surfaces as an ordinary violation instead of killing
// the whole fuzz run. The panic stays shrinkable like any other failure.
func contained(check func(*circuit.Circuit) error) func(*circuit.Circuit) error {
	return func(c *circuit.Circuit) (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("check panicked: %v", r)
			}
		}()
		return check(c)
	}
}

// checkQASM verifies that the QASM writer and parser agree on the circuit:
// the emission parses, preserves shape, and (at simulable widths) preserves
// semantics up to global phase.
func checkQASM(opts FuzzOptions) func(*circuit.Circuit) error {
	return func(c *circuit.Circuit) error {
		src := qasm.Write(c)
		back, err := qasm.Parse(src)
		if err != nil {
			return fmt.Errorf("emitted QASM does not parse: %w", err)
		}
		if back.NumQubits != c.NumQubits {
			return fmt.Errorf("round trip changed width: %d → %d", c.NumQubits, back.NumQubits)
		}
		unitary := 0
		for _, g := range c.Gates {
			if g.Kind != circuit.Measure && g.Kind != circuit.Barrier {
				unitary++
			}
		}
		if len(back.Gates) < unitary {
			return fmt.Errorf("round trip dropped gates: %d → %d", unitary, len(back.Gates))
		}
		if c.NumQubits <= opts.simMax() {
			sa, err := sim.Run(c)
			if err != nil {
				return fmt.Errorf("simulating original: %w", err)
			}
			sb, err := sim.Run(back)
			if err != nil {
				return fmt.Errorf("simulating round trip: %w", err)
			}
			if f := sim.FidelityUpToPhase(sa, sb); math.Abs(f-1) > 1e-7 {
				return fmt.Errorf("round trip changed semantics: fidelity %g", f)
			}
		}
		return nil
	}
}

// checkResynth verifies the preprocessing pass: the staged program validates
// (gate-set legality: only U3/CZ(CCZ) in well-formed disjoint stages) and,
// at simulable widths, is semantically equivalent to the input.
func checkResynth(opts FuzzOptions) func(*circuit.Circuit) error {
	return func(c *circuit.Circuit) error {
		staged, err := resynth.Preprocess(c)
		if err != nil {
			return fmt.Errorf("preprocess: %w", err)
		}
		if err := staged.Validate(); err != nil {
			return fmt.Errorf("staged program invalid: %w", err)
		}
		if c.NumQubits <= opts.simMax() {
			sa, err := sim.Run(c)
			if err != nil {
				return fmt.Errorf("simulating original: %w", err)
			}
			sb, err := sim.Run(staged.Flatten())
			if err != nil {
				return fmt.Errorf("simulating staged: %w", err)
			}
			if f := sim.FidelityUpToPhase(sa, sb); math.Abs(f-1) > 1e-7 {
				return fmt.Errorf("resynthesis changed semantics: fidelity %g", f)
			}
		}
		return nil
	}
}

// checkCompile compiles the circuit with one registry compiler under the
// registry-wide shaping rule and verifies the result's invariants.
func checkCompile(ctx context.Context, comp compiler.Compiler) func(*circuit.Circuit) error {
	return func(c *circuit.Circuit) error {
		staged, err := resynth.Preprocess(c)
		if err != nil {
			return fmt.Errorf("preprocess: %w", err)
		}
		staged = circuit.SplitRydbergStages(staged, compiler.StageSplitCap(comp))
		if err := staged.Validate(); err != nil {
			return fmt.Errorf("split staging invalid: %w", err)
		}
		a := compiler.TargetArch(comp)
		res, err := comp.Compile(ctx, staged, a, compiler.Options{})
		if err != nil {
			return fmt.Errorf("compile: %w", err)
		}
		if err := checkFidelitySanity(res.Breakdown.Total, "total"); err != nil {
			return err
		}
		for name, v := range map[string]float64{
			"1Q": res.Breakdown.OneQ, "2Q": res.Breakdown.TwoQ,
			"excite": res.Breakdown.Excite, "transfer": res.Breakdown.Transfer,
			"decohere": res.Breakdown.Decohere,
		} {
			if err := checkFidelitySanity(v, name); err != nil {
				return err
			}
		}
		if res.Duration < 0 || math.IsNaN(res.Duration) || math.IsInf(res.Duration, 0) {
			return fmt.Errorf("negative or non-finite duration %g", res.Duration)
		}
		if res.NumRydbergStages < 0 || res.TotalMoves < 0 || res.ReusedGates < 0 {
			return fmt.Errorf("negative counters: stages=%d moves=%d reused=%d",
				res.NumRydbergStages, res.TotalMoves, res.ReusedGates)
		}
		if len(res.Program.Instructions) > 0 {
			v := &zair.Verifier{Resolve: a.ResolveTrap}
			if err := v.Verify(res.Program); err != nil {
				return err
			}
		}
		return nil
	}
}

// checkFidelitySanity rejects fidelity terms outside [0,1] or non-finite.
func checkFidelitySanity(v float64, name string) error {
	if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 || v > 1+1e-12 {
		return fmt.Errorf("fidelity sanity: %s term %g outside [0,1]", name, v)
	}
	return nil
}

// Shrink greedily minimizes a failing circuit: ever-smaller gate chunks are
// removed while the predicate keeps failing, then unused qubits are
// compacted away. fails must treat its argument as read-only; candidates
// that fail circuit.Validate are never offered. The predicate is invoked at
// most maxChecks times, so shrinking cost is bounded even when every check
// is a full compile.
func Shrink(c *circuit.Circuit, fails func(*circuit.Circuit) bool, maxChecks int) *circuit.Circuit {
	cur := c.Clone()
	checks := 0
	try := func(cand *circuit.Circuit) bool {
		if checks >= maxChecks || cand.Validate() != nil {
			return false
		}
		checks++
		return fails(cand)
	}
	size := len(cur.Gates)
	if size > 1 {
		size /= 2
	}
	for size >= 1 && checks < maxChecks {
		removedAny := false
		for start := 0; start < len(cur.Gates) && checks < maxChecks; {
			cand := withoutGates(cur, start, min(start+size, len(cur.Gates)))
			if try(cand) {
				cur = cand
				removedAny = true // same start: the next chunk shifted into place
			} else {
				start += size
			}
		}
		if size == 1 {
			if !removedAny {
				break
			}
			continue // another single-gate pass until a fixed point
		}
		size /= 2
	}
	if cand := compactQubits(cur); cand.NumQubits < cur.NumQubits && try(cand) {
		cur = cand
	}
	return cur
}

// withoutGates clones c minus the gate range [start, end).
func withoutGates(c *circuit.Circuit, start, end int) *circuit.Circuit {
	out := circuit.New(c.Name, c.NumQubits)
	out.Gates = make([]circuit.Gate, 0, len(c.Gates)-(end-start))
	out.Gates = append(out.Gates, c.Gates[:start]...)
	out.Gates = append(out.Gates, c.Gates[end:]...)
	return out
}

// compactQubits renumbers the qubits that actually appear in gates to a
// dense [0, k) range, dropping unused wires (width stays ≥ 1).
func compactQubits(c *circuit.Circuit) *circuit.Circuit {
	used := map[int]bool{}
	for _, g := range c.Gates {
		for _, q := range g.Qubits {
			used[q] = true
		}
	}
	remap := map[int]int{}
	next := 0
	for q := 0; q < c.NumQubits; q++ {
		if used[q] {
			remap[q] = next
			next++
		}
	}
	if next == 0 {
		next = 1
	}
	out := circuit.New(c.Name, next)
	for _, g := range c.Gates {
		qs := make([]int, len(g.Qubits))
		for i, q := range g.Qubits {
			qs[i] = remap[q]
		}
		out.Gates = append(out.Gates, circuit.Gate{Kind: g.Kind, Qubits: qs, Params: append([]float64(nil), g.Params...)})
	}
	return out
}

// RandomSpec draws a random spec: a uniform family and uniform parameter
// values over each parameter's fuzz range. The same RNG stream always draws
// the same spec sequence, so a fuzz run is reproducible from its base seed.
func RandomSpec(r *RNG) Spec {
	fams := Families()
	g, _ := Get(fams[r.Intn(len(fams))])
	v := Values{}
	for _, p := range g.Params() {
		lo, hi := p.FuzzMin, p.FuzzMax
		if hi <= lo {
			lo, hi = p.Min, p.Default*4
			if hi <= lo {
				hi = lo + 1
			}
		}
		v[p.Name] = lo + r.Int63n(hi-lo+1)
	}
	return Spec{Family: g.Family(), Values: v}
}

// SmokeSpecs are the pinned seeds the CI fuzz-smoke gate round-trips through
// every registry compiler (`make fuzz-smoke`). Widths stay at or below the
// default SimMax so the statevector equivalence checks all run.
func SmokeSpecs() []string {
	return []string{
		"clifford:n=10,gates=80,t=20,seed=7",
		"rb:n=8,depth=6,seed=7",
		"shuffle:n=10,depth=4,seed=7",
		"qaoa:n=10,p=2,seed=7",
		"ising:n=10,layers=2",
		"hiqp:logblocks=2,rounds=1",
	}
}
