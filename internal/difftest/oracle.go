package difftest

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"

	"zac/internal/circuit"
	"zac/internal/compiler"
	"zac/internal/qasm"
	"zac/internal/resynth"
	"zac/internal/workload"
	"zac/internal/zair"
)

// Defaults of the oracle's tunables.
const (
	// DefaultFidelityTol is the relative slack of the ablation-ordering
	// check, measured in log-fidelity (cost) domain: an ablation may
	// undercut its superset configuration's cost by up to this fraction
	// before the disagreement counts as a divergence. The heuristics (SA,
	// dynamic matching, advanced reuse) are not provably monotone on
	// adversarial inputs; calibration over 300 random forge specs observed
	// a worst legitimate undercut of 4.3%, so the default carries ~3.5×
	// headroom.
	DefaultFidelityTol = 0.15
	// fidelityAbsSlack is the absolute cost slack added on top of the
	// relative tolerance so shallow circuits (cost near zero, where any
	// relative bound degenerates) don't produce noise. 0.05 in cost is a
	// ~5% fidelity factor.
	fidelityAbsSlack = 0.05
	// DefaultMaxShrinkChecks bounds the predicate evaluations — each one
	// or two full compiles — spent minimizing one divergence.
	DefaultMaxShrinkChecks = 120
	// DefaultMaxQubits bounds the width the oracle accepts. Above ~64
	// qubits the platforms' capacity limits legitimately diverge (the SC
	// couplings hold 121–127 qubits), which would turn ClassCompile into
	// noise.
	DefaultMaxQubits = 64
)

// Options configures an Oracle. The zero value checks the whole registry
// with default tolerances and no corpus persistence.
type Options struct {
	// Compilers names the registry compilers to cross-check; empty selects
	// the whole registry.
	Compilers []string
	// FidelityTol is the relative slack of the ablation-ordering check
	// (≤ 0 selects DefaultFidelityTol).
	FidelityTol float64
	// NoShrink reports divergences on the original input without
	// minimizing.
	NoShrink bool
	// MaxShrinkChecks bounds predicate evaluations per shrink (≤ 0 selects
	// DefaultMaxShrinkChecks).
	MaxShrinkChecks int
	// CorpusDir, when non-empty, persists each minimized repro as a
	// commented QASM file in this directory.
	CorpusDir string
	// MaxQubits bounds accepted circuit widths (≤ 0 selects
	// DefaultMaxQubits).
	MaxQubits int
}

func (o Options) fidelityTol() float64 {
	if o.FidelityTol <= 0 {
		return DefaultFidelityTol
	}
	return o.FidelityTol
}

func (o Options) maxShrinkChecks() int {
	if o.MaxShrinkChecks <= 0 {
		return DefaultMaxShrinkChecks
	}
	return o.MaxShrinkChecks
}

func (o Options) maxQubits() int {
	if o.MaxQubits <= 0 {
		return DefaultMaxQubits
	}
	return o.MaxQubits
}

// Oracle cross-checks compilations of one circuit across a fixed compiler
// set. Construct with New (registry names) or NewWith (explicit compilers,
// used by tests to inject misbehaving stubs).
type Oracle struct {
	comps []compiler.Compiler
	opts  Options
}

// New resolves opts.Compilers against the registry (whole registry when
// empty) and returns the oracle. Unknown names error with the valid list.
func New(opts Options) (*Oracle, error) {
	names := opts.Compilers
	if len(names) == 0 {
		names = compiler.Names()
	}
	comps := make([]compiler.Compiler, 0, len(names))
	for _, n := range names {
		c, err := compiler.Get(n)
		if err != nil {
			return nil, err
		}
		comps = append(comps, c)
	}
	return NewWith(comps, opts), nil
}

// NewWith builds an oracle over an explicit compiler set, bypassing the
// registry — the seam tests use to inject intentionally broken compilers.
func NewWith(comps []compiler.Compiler, opts Options) *Oracle {
	return &Oracle{comps: comps, opts: opts}
}

// Compilers returns the names of the oracle's compiler set, in check order.
func (o *Oracle) Compilers() []string {
	out := make([]string, len(o.comps))
	for i, c := range o.comps {
		out[i] = c.Name()
	}
	return out
}

// outcome is one compilation attempt's observable result.
type outcome struct {
	res  *compileResult
	err  error
	hash string
}

// compileResult carries the fields the cross-checks read.
type compileResult struct {
	program     *zair.Program
	total       float64
	breakdown   map[string]float64
	duration    float64
	totalMoves  int
	reusedGates int
	stages      int
	resolve     zair.PosResolver
}

// compileOnce shapes the circuit the way every surface does (preprocess,
// split to the compiler's stage cap) and compiles it, containing panics —
// the compilers are being fed adversarial inputs.
func (o *Oracle) compileOnce(ctx context.Context, comp compiler.Compiler, c *circuit.Circuit) (out outcome) {
	defer func() {
		if r := recover(); r != nil {
			out = outcome{err: fmt.Errorf("compile panicked: %v", r)}
		}
	}()
	staged, err := preprocessFor(comp, c)
	if err != nil {
		return outcome{err: err}
	}
	a := compiler.TargetArch(comp)
	res, err := comp.Compile(ctx, staged, a, compiler.Options{})
	if err != nil {
		return outcome{err: err}
	}
	cr := &compileResult{
		program: res.Program,
		total:   res.Breakdown.Total,
		breakdown: map[string]float64{
			"1Q": res.Breakdown.OneQ, "2Q": res.Breakdown.TwoQ,
			"excite": res.Breakdown.Excite, "transfer": res.Breakdown.Transfer,
			"decohere": res.Breakdown.Decohere, "total": res.Breakdown.Total,
		},
		duration:    res.Duration,
		totalMoves:  res.TotalMoves,
		reusedGates: res.ReusedGates,
		stages:      res.NumRydbergStages,
		resolve:     a.ResolveTrap,
	}
	data, err := json.Marshal(struct {
		Program any
		Stats   any
		Brk     any
	}{res.Program, res.Stats, res.Breakdown})
	if err != nil {
		return outcome{err: fmt.Errorf("result not serializable: %w", err)}
	}
	sum := sha256.Sum256(data)
	return outcome{res: cr, hash: hex.EncodeToString(sum[:])}
}

// preprocessFor shapes a raw circuit for one compiler under the
// registry-wide shaping rule (same as the CLI, serve, and harness).
func preprocessFor(comp compiler.Compiler, c *circuit.Circuit) (*circuit.Staged, error) {
	staged, err := resynth.Preprocess(c)
	if err != nil {
		return nil, err
	}
	if splitCap := compiler.StageSplitCap(comp); splitCap > 0 {
		staged = circuit.SplitRydbergStages(staged, splitCap)
	}
	if err := staged.Validate(); err != nil {
		return nil, fmt.Errorf("split staging invalid: %w", err)
	}
	return staged, nil
}

// Check cross-checks one circuit through the oracle's compiler set and
// returns every classified, minimized divergence. The returned error is
// non-nil only for harness-level problems (cancellation, width beyond
// Options.MaxQubits) — invariant violations come back as Divergences.
func (o *Oracle) Check(ctx context.Context, c *circuit.Circuit, label string) ([]Divergence, error) {
	if c.NumQubits > o.opts.maxQubits() {
		return nil, fmt.Errorf("difftest: circuit %s has %d qubits, oracle bound is %d (platform capacities diverge above it)",
			label, c.NumQubits, o.opts.maxQubits())
	}
	var divs []Divergence
	outs := make(map[string]outcome, len(o.comps))
	for _, comp := range o.comps {
		if err := ctx.Err(); err != nil {
			return divs, err
		}
		comp := comp
		o1 := o.compileOnce(ctx, comp, c)
		o2 := o.compileOnce(ctx, comp, c)
		outs[comp.Name()] = o1
		if detail := determinismDetail(o1, o2); detail != "" && ctx.Err() == nil {
			divs = append(divs, o.finish(ctx, Divergence{
				Class: ClassDeterminism, Compiler: comp.Name(), Input: label, Detail: detail,
			}, c, func(cand *circuit.Circuit) bool {
				a, b := o.compileOnce(ctx, comp, cand), o.compileOnce(ctx, comp, cand)
				return determinismDetail(a, b) != ""
			}))
		}
		if o1.err != nil {
			continue
		}
		if detail := sanityDetail(o1.res); detail != "" {
			divs = append(divs, o.finish(ctx, Divergence{
				Class: ClassSanity, Compiler: comp.Name(), Input: label, Detail: detail,
			}, c, func(cand *circuit.Circuit) bool {
				out := o.compileOnce(ctx, comp, cand)
				return out.err == nil && sanityDetail(out.res) != ""
			}))
		}
		if detail := verifyDetail(o1.res); detail != "" {
			divs = append(divs, o.finish(ctx, Divergence{
				Class: ClassVerify, Compiler: comp.Name(), Input: label, Detail: detail,
			}, c, func(cand *circuit.Circuit) bool {
				out := o.compileOnce(ctx, comp, cand)
				return out.err == nil && verifyDetail(out.res) != ""
			}))
		}
		if detail := accountingDetail(o1.res); detail != "" {
			divs = append(divs, o.finish(ctx, Divergence{
				Class: ClassAccounting, Compiler: comp.Name(), Input: label, Detail: detail,
			}, c, func(cand *circuit.Circuit) bool {
				out := o.compileOnce(ctx, comp, cand)
				return out.err == nil && accountingDetail(out.res) != ""
			}))
		}
	}
	if err := ctx.Err(); err != nil {
		return divs, err
	}

	// Cross-compiler: compile-outcome agreement. A failure is only a
	// divergence when a witness compiler accepted the same input.
	var witness compiler.Compiler
	for _, comp := range o.comps {
		if outs[comp.Name()].err == nil {
			witness = comp
			break
		}
	}
	if witness != nil {
		for _, comp := range o.comps {
			comp := comp
			failed := outs[comp.Name()].err
			if failed == nil {
				continue
			}
			w := witness
			divs = append(divs, o.finish(ctx, Divergence{
				Class: ClassCompile, Compiler: comp.Name(), Input: label,
				Detail: fmt.Sprintf("rejected input that %s accepted: %v", w.Name(), failed),
			}, c, func(cand *circuit.Circuit) bool {
				return o.compileOnce(ctx, comp, cand).err != nil &&
					o.compileOnce(ctx, w, cand).err == nil
			}))
		}
	}

	// Cross-compiler: ablation fidelity ordering. Walk the chain of
	// configurations where each entry strictly extends the previous one;
	// the weaker configuration must not win beyond tolerance.
	tol := o.opts.fidelityTol()
	chain := presentChain(o.comps, outs)
	for i := 0; i+1 < len(chain); i++ {
		less, more := chain[i], chain[i+1]
		lf, mf := outs[less.Name()].res.total, outs[more.Name()].res.total
		if fidelityOrderViolated(lf, mf, tol) {
			lc, mc := less, more
			divs = append(divs, o.finish(ctx, Divergence{
				Class:    ClassFidelityOrder,
				Compiler: lc.Name() + ">" + mc.Name(),
				Input:    label,
				Detail: fmt.Sprintf("ablation %s fidelity %.6g beats %s fidelity %.6g beyond tolerance %g",
					lc.Name(), lf, mc.Name(), mf, tol),
			}, c, func(cand *circuit.Circuit) bool {
				a, b := o.compileOnce(ctx, lc, cand), o.compileOnce(ctx, mc, cand)
				return a.err == nil && b.err == nil &&
					fidelityOrderViolated(a.res.total, b.res.total, tol)
			}))
		}
	}
	return divs, ctx.Err()
}

// ablationChain orders the zac-family presets from least to most
// optimized; adjacent present entries are compared by the ordering check.
var ablationChain = []string{"zac-vanilla", "zac-dynplace", "zac-dynplace-reuse", "zac", "zac-advreuse"}

// presentChain filters the ablation chain to the oracle's compilers that
// compiled successfully, preserving chain order.
func presentChain(comps []compiler.Compiler, outs map[string]outcome) []compiler.Compiler {
	byName := map[string]compiler.Compiler{}
	for _, c := range comps {
		byName[c.Name()] = c
	}
	var chain []compiler.Compiler
	for _, n := range ablationChain {
		if c, ok := byName[n]; ok {
			if out, done := outs[n]; done && out.err == nil && out.res != nil {
				chain = append(chain, c)
			}
		}
	}
	return chain
}

// fidelityOrderViolated reports whether the less-optimized configuration's
// fidelity beats the more-optimized one's beyond tolerance. The comparison
// runs in log domain — fidelity = exp(−cost), costs are additive over a
// circuit, so heuristic gaps are a stable fraction of total cost where raw
// fidelity ratios amplify exponentially with depth. Non-finite or
// out-of-range fidelities are ClassSanity's job, not this check's.
func fidelityOrderViolated(less, more, tol float64) bool {
	if !(less > 0) || !(more > 0) || less > 1+1e-12 || more > 1+1e-12 {
		return false
	}
	costLess, costMore := -math.Log(less), -math.Log(more)
	return costMore-costLess > tol*costMore+fidelityAbsSlack
}

// determinismDetail compares two fresh compilations of the same input.
func determinismDetail(a, b outcome) string {
	switch {
	case (a.err == nil) != (b.err == nil):
		return fmt.Sprintf("repeat compile flipped outcome: %v vs %v", a.err, b.err)
	case a.err == nil && a.hash != b.hash:
		return fmt.Sprintf("repeat compile not byte-identical: %s vs %s", a.hash[:12], b.hash[:12])
	}
	return ""
}

// sanityDetail checks one result's internal consistency.
func sanityDetail(r *compileResult) string {
	for name, v := range r.breakdown {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 || v > 1+1e-12 {
			return fmt.Sprintf("fidelity term %s = %g outside [0,1]", name, v)
		}
	}
	if r.duration < 0 || math.IsNaN(r.duration) || math.IsInf(r.duration, 0) {
		return fmt.Sprintf("negative or non-finite duration %g", r.duration)
	}
	if r.stages < 0 || r.totalMoves < 0 || r.reusedGates < 0 {
		return fmt.Sprintf("negative counters: stages=%d moves=%d reused=%d",
			r.stages, r.totalMoves, r.reusedGates)
	}
	return ""
}

// verifyDetail replays an emitted ZAIR program through the hardware
// verifier. Header-only programs (the analytic baselines) pass trivially.
func verifyDetail(r *compileResult) string {
	if r.program == nil || len(r.program.Instructions) == 0 {
		return ""
	}
	v := &zair.Verifier{Resolve: r.resolve}
	if err := v.Verify(r.program); err != nil {
		return err.Error()
	}
	return ""
}

// accountingDetail cross-checks the result's resource counters against the
// program: the instruction stream's individual qubit movements must match
// the reported TotalMoves. (That every qubit ends in one distinct trap
// follows from the verify class: zair.Verifier implies it.)
func accountingDetail(r *compileResult) string {
	if r.program == nil || len(r.program.Instructions) == 0 {
		return ""
	}
	if moves := r.program.CountStats().MovedQubits; moves != r.totalMoves {
		return fmt.Sprintf("move accounting: program replays %d qubit movements, result reports %d",
			moves, r.totalMoves)
	}
	return ""
}

// finish minimizes a divergence's circuit with the forge's shrinker, fills
// in the repro fields, and persists to the corpus directory when one is
// configured.
func (o *Oracle) finish(ctx context.Context, d Divergence, c *circuit.Circuit, stillFails func(*circuit.Circuit) bool) Divergence {
	red := c
	if !o.opts.NoShrink {
		red = workload.Shrink(c, func(cand *circuit.Circuit) bool {
			return ctx.Err() == nil && contained(stillFails)(cand)
		}, o.opts.maxShrinkChecks())
	}
	d.QASM = qasm.Write(red)
	d.Gates = len(red.Gates)
	if o.opts.CorpusDir != "" && ctx.Err() == nil {
		if p, err := writeRepro(o.opts.CorpusDir, d); err == nil {
			d.CorpusPath = p
		}
	}
	return d
}

// contained wraps a shrink predicate so panics on malformed candidates
// count as "still fails" being false rather than killing the run.
func contained(pred func(*circuit.Circuit) bool) func(*circuit.Circuit) bool {
	return func(c *circuit.Circuit) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		return pred(c)
	}
}
