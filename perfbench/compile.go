package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"zac/internal/arch"
	"zac/internal/bench"
	"zac/internal/circuit"
	"zac/internal/compiler"
	"zac/internal/core"
	"zac/internal/fidelity"
	"zac/internal/place"
	"zac/internal/resynth"
	"zac/internal/schedule"
	"zac/internal/workload"
)

// compileInput is one circuit of a compile workload: either a Fig. 8
// benchmark or a workload-forge spec.
type compileInput struct {
	name  string
	bench *bench.Benchmark // nil for a forge spec
	exp   expected
}

func (in *compileInput) build() (*circuit.Circuit, error) {
	if in.bench != nil {
		return in.bench.Build(), nil
	}
	return workload.Build(in.name)
}

// compileWorkload runs whole compilations in a closed loop on one client,
// round after round; each round compiles every input once in an order drawn
// from the workload seed.
type compileWorkload struct {
	inputs []compileInput
	// encode makes each operation encode its ZAIR as `zac -out` does; the
	// forge operation, like `zac-bench -nocache`, stops after evaluation.
	encode bool
	// splitToSites splits oversized Rydberg stages to the architecture's
	// site capacity, the harness shaping `zac-bench` applies; the CLI keeps
	// the unsplit staging (compiler.StageSplitCap is 0 for zac).
	splitToSites bool
	order        *rand.Rand
	zac          compiler.Compiler
}

func newPaperCompile(seed int64) (*compileWorkload, error) {
	w, err := newCompileWorkload(seed, true, false)
	if err != nil {
		return nil, err
	}
	for _, b := range bench.All() {
		w.inputs = append(w.inputs, compileInput{name: b.Name, bench: &b})
	}
	return w, nil
}

func newForgeScale(seed int64) (*compileWorkload, error) {
	w, err := newCompileWorkload(seed, false, true)
	if err != nil {
		return nil, err
	}
	for _, spec := range forgeSpecs {
		w.inputs = append(w.inputs, compileInput{name: spec})
	}
	return w, nil
}

func newCompileWorkload(seed int64, encode, split bool) (*compileWorkload, error) {
	zc, err := compiler.Get("zac")
	if err != nil {
		return nil, err
	}
	return &compileWorkload{encode: encode, splitToSites: split,
		order: rand.New(rand.NewSource(seed)), zac: zc}, nil
}

// stage shapes a preprocessed circuit the way the workload's surface does.
func (w *compileWorkload) stage(staged *circuit.Staged, a *arch.Architecture) *circuit.Staged {
	if w.splitToSites {
		return circuit.SplitRydbergStages(staged, a.TotalSites())
	}
	return circuit.SplitRydbergStages(staged, compiler.StageSplitCap(w.zac))
}

// op is one operation on the registry path, in-process: what `zac -circuit
// X -out f` does for paper-compile, and what `zac-bench -workload … -nocache`
// does per spec for forge-scale. data is nil when the workload does not
// encode.
func (w *compileWorkload) op(ctx context.Context, in *compileInput) (*core.Result, []byte, error) {
	c, err := in.build()
	if err != nil {
		return nil, nil, err
	}
	staged, err := resynth.Preprocess(c)
	if err != nil {
		return nil, nil, err
	}
	a := compiler.TargetArch(w.zac)
	staged = w.stage(staged, a)
	res, err := w.zac.Compile(ctx, staged, a, compiler.Options{SARestarts: 1})
	if err != nil {
		return nil, nil, err
	}
	if !w.encode {
		return res, nil, nil
	}
	data, err := json.MarshalIndent(res.Program, "", " ")
	return res, data, err
}

// setupOnce is one set-up: every input is generated and compiled once,
// untimed by the loop, and its encoded output recorded as the expected
// result of every later operation on it.
func (w *compileWorkload) setupOnce(ctx context.Context) ([]expected, []*core.Result, error) {
	exps := make([]expected, len(w.inputs))
	results := make([]*core.Result, len(w.inputs))
	for i := range w.inputs {
		in := &w.inputs[i]
		res, data, err := w.op(ctx, in)
		if err == nil && data == nil {
			data, err = json.MarshalIndent(res.Program, "", " ")
		}
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", in.name, err)
		}
		results[i] = res
		exps[i] = expected{
			name: in.name, digest: sha256.Sum256(data), zairBytes: len(data),
			moves: res.TotalMoves, jobs: res.NumJobs, insts: len(res.Program.Instructions),
			fidelity: res.Breakdown.Total, duration: res.Duration,
		}
	}
	return exps, results, nil
}

// setup runs setupOnce reps times, timing each, then checks the outputs.
func (w *compileWorkload) setup(ctx context.Context, reps int) ([]float64, error) {
	times, exps, results, err := repeatSetup(reps, func() ([]expected, []*core.Result, error) { return w.setupOnce(ctx) })
	if err != nil {
		return nil, err
	}
	return times, w.checkOutputs(exps, results)
}

// repeatSetup runs once reps times, timing each, and requires every rep to
// produce the same outputs: the compiler is deterministic. It returns the
// first rep's outputs.
func repeatSetup(reps int, once func() ([]expected, []*core.Result, error)) ([]float64, []expected, []*core.Result, error) {
	var times []float64
	var first []expected
	var results []*core.Result
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		exps, res, err := once()
		if err != nil {
			return nil, nil, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		if r == 0 {
			first, results = exps, res
		} else if !slices.Equal(first, exps) {
			return nil, nil, nil, fmt.Errorf("set-up %d produced different outputs than set-up 1", r+1)
		}
	}
	return times, first, results, nil
}

// checkOutputs records each input's expected output and checks it once,
// outside any timed window: the program passes the hardware verifier and
// its move replay matches the reported count, and small inputs survive
// preprocessing unchanged under simulation.
func (w *compileWorkload) checkOutputs(exps []expected, results []*core.Result) error {
	for i := range w.inputs {
		in := &w.inputs[i]
		in.exp = exps[i]
		c, err := in.build()
		if err != nil {
			return err
		}
		staged, err := resynth.Preprocess(c)
		if err != nil {
			return err
		}
		if err := checkPreprocess(c, staged); err != nil {
			return err
		}
		if err := checkProgram(results[i].Program, compiler.TargetArch(w.zac), results[i].TotalMoves); err != nil {
			return err
		}
	}
	return nil
}

// checkResult compares one operation's output with the input's expected
// output. data is checked only when the operation encoded.
func checkResult(exp *expected, res *core.Result, data []byte) error {
	switch {
	case res.TotalMoves != exp.moves, res.NumJobs != exp.jobs, len(res.Program.Instructions) != exp.insts:
		return fmt.Errorf("%s: moves/jobs/instructions %d/%d/%d, want %d/%d/%d", exp.name,
			res.TotalMoves, res.NumJobs, len(res.Program.Instructions), exp.moves, exp.jobs, exp.insts)
	case res.Breakdown.Total != exp.fidelity, res.Duration != exp.duration:
		return fmt.Errorf("%s: fidelity/duration %g/%g, want %g/%g", exp.name,
			res.Breakdown.Total, res.Duration, exp.fidelity, exp.duration)
	case data != nil && sha256.Sum256(data) != exp.digest:
		return fmt.Errorf("%s: ZAIR bytes differ from the set-up compile", exp.name)
	}
	return nil
}

// loop runs whole rounds until seconds have passed; a round started before
// the deadline finishes, so every input is compiled equally often and the
// operation mix does not depend on where the deadline falls. do runs one
// operation and returns its latency and output bytes.
func (w *compileWorkload) loop(seconds float64, do func(in *compileInput) (time.Duration, int, error)) (*window, error) {
	runtime.GC() // start every window with the set-up's garbage collected
	win := &window{start: snapshot()}
	deadline := win.start.wall.Add(time.Duration(seconds * float64(time.Second)))
	var firstErr error
	for time.Now().Before(deadline) {
		for _, i := range w.order.Perm(len(w.inputs)) {
			in := &w.inputs[i]
			lat, out, err := do(in)
			win.attempted++
			if err != nil {
				win.failed++
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
			win.latMS = append(win.latMS, ms(lat))
			win.outBytes += int64(out)
			win.quality.add(in.exp.fidelity, in.exp.duration)
		}
	}
	win.end = snapshot()
	return win, firstErr
}

// measuredOp is one registry-path operation, timed and checked.
func (w *compileWorkload) measuredOp(ctx context.Context) func(in *compileInput) (time.Duration, int, error) {
	return func(in *compileInput) (time.Duration, int, error) {
		t0 := time.Now()
		res, data, err := w.op(ctx, in)
		lat := time.Since(t0)
		if err != nil {
			return 0, 0, fmt.Errorf("%s: %w", in.name, err)
		}
		if err := checkResult(&in.exp, res, data); err != nil {
			return 0, 0, err
		}
		// Forge operations do not encode; their output size is that of the
		// program's ZAIR encoding, measured at set-up.
		return lat, in.exp.zairBytes, nil
	}
}

// Layers the traced run times around the public calls of the compile path.
// The probes are calls the registry path does not make on its own (or makes
// inside another call), so their time is kept out of the operation's.
const (
	layerBench = iota
	layerWorkload
	layerPreprocess
	layerTopology
	layerPlan
	layerSchedule
	layerFidelity
	layerEncode
	probeFingerprint
	probeSA
	numLayers
)

// numPathLayers counts the layers on the registry path; the probes follow.
const numPathLayers = probeFingerprint

var layerNames = [numLayers]string{
	layerBench: "bench.build_ms", layerWorkload: "workload.build_ms",
	layerPreprocess: "resynth.preprocess_ms", layerTopology: "arch.topology_ms",
	layerPlan: "place.plan_ms", layerSchedule: "schedule.build_ms",
	layerFidelity: "fidelity.compute_ms", layerEncode: "zair.encode_ms",
	probeFingerprint: "arch.fingerprint_ms", probeSA: "place.sa_ms",
}

// compileTrace accumulates the traced window of a compile workload.
type compileTrace struct {
	ops        int
	spans      [numLayers]time.Duration
	pathWallMS []float64 // operation wall time minus probes, per operation
	unattrib   time.Duration
	moves      int
	reused     int
	gates2Q    int
	stages     int
	jobs       int
	insts      int
	outBytes   int64
	compared   map[string]bool // inputs whose decomposed bytes were compared
}

// timed runs f and adds its duration to *d.
func timed[T any](d *time.Duration, f func() (T, error)) (T, error) {
	t0 := time.Now()
	v, err := f()
	*d += time.Since(t0)
	return v, err
}

// tracedOp decomposes one operation into the public calls the registry
// pipeline makes, in the same order and with the same options, timing each:
// build, preprocess, target architecture (with its first topology-backed
// call), placement, scheduling, fidelity and — for paper-compile — ZAIR
// encoding. Two probes are timed beside the path: the architecture
// fingerprint every cache key pays, and the annealed initial placement that
// BuildPlan runs internally. The decomposed program must encode to exactly
// the registry path's bytes.
func (w *compileWorkload) tracedOp(ctx context.Context, tr *compileTrace) func(in *compileInput) (time.Duration, int, error) {
	setting, _ := compiler.Setting(w.zac.Name())
	co := core.OptionsFor(setting)
	co.Place.SARestarts = 1
	return func(in *compileInput) (time.Duration, int, error) {
		var sp [numLayers]time.Duration
		t0 := time.Now()
		buildLayer := layerWorkload
		if in.bench != nil {
			buildLayer = layerBench
		}
		c, err := timed(&sp[buildLayer], in.build)
		if err != nil {
			return 0, 0, err
		}
		staged, err := timed(&sp[layerPreprocess], func() (*circuit.Staged, error) { return resynth.Preprocess(c) })
		if err != nil {
			return 0, 0, err
		}
		a, _ := timed(&sp[layerTopology], func() (*arch.Architecture, error) {
			a := compiler.TargetArch(w.zac)
			a.TrapCount()
			return a, nil
		})
		timed(&sp[probeFingerprint], func() (string, error) { return a.Fingerprint(), nil })
		staged, _ = timed(&sp[layerPreprocess], func() (*circuit.Staged, error) { return w.stage(staged, a), nil })
		if err := a.Validate(); err != nil {
			return 0, 0, err
		}
		if err := staged.Validate(); err != nil {
			return 0, 0, err
		}
		var saInit []arch.TrapRef
		if co.Place.UseSA {
			saInit, err = timed(&sp[probeSA], func() ([]arch.TrapRef, error) {
				r := rand.New(rand.NewSource(co.Place.Seed))
				traps, _, err := place.SAInitialWithCost(a, staged, co.Place.SAIterations, r)
				return traps, err
			})
			if err != nil {
				return 0, 0, err
			}
		}
		plan, err := timed(&sp[layerPlan], func() (*place.Plan, error) { return place.BuildPlan(ctx, a, staged, co.Place) })
		if err != nil {
			return 0, 0, err
		}
		sched, err := timed(&sp[layerSchedule], func() (*schedule.Result, error) {
			return schedule.BuildWithOptions(ctx, a, staged, plan, schedule.Options{Workers: co.Place.Workers})
		})
		if err != nil {
			return 0, 0, err
		}
		bd, _ := timed(&sp[layerFidelity], func() (fidelity.Breakdown, error) {
			return fidelity.Compute(core.ParamsFromArch(a), sched.Stats), nil
		})
		var data []byte
		if w.encode {
			data, err = timed(&sp[layerEncode], func() ([]byte, error) { return json.MarshalIndent(sched.Program, "", " ") })
			if err != nil {
				return 0, 0, err
			}
		}
		wall := time.Since(t0) - sp[probeFingerprint] - sp[probeSA]

		if co.Place.UseSA && !slices.Equal(saInit, plan.Initial) {
			return 0, 0, fmt.Errorf("%s: the annealing probe placed qubits differently from BuildPlan", in.name)
		}
		res := &core.Result{Program: sched.Program, Breakdown: bd, Duration: sched.Stats.Duration,
			NumJobs: sched.NumJobs, TotalMoves: plan.TotalMoves()}
		if err := checkResult(&in.exp, res, data); err != nil {
			return 0, 0, fmt.Errorf("decomposed path: %w", err)
		}
		if data == nil && !tr.compared[in.name] {
			enc, err := json.MarshalIndent(sched.Program, "", " ")
			if err != nil {
				return 0, 0, err
			}
			if sha256.Sum256(enc) != in.exp.digest {
				return 0, 0, fmt.Errorf("%s: decomposed path's ZAIR bytes differ from the registry path's", in.name)
			}
			tr.compared[in.name] = true
		}

		tr.ops++
		var onPath time.Duration
		for l := range sp {
			tr.spans[l] += sp[l]
			if l < numPathLayers {
				onPath += sp[l]
			}
		}
		tr.unattrib += wall - onPath
		tr.pathWallMS = append(tr.pathWallMS, ms(wall))
		_, two := staged.GateCounts()
		tr.moves += plan.TotalMoves()
		tr.reused += plan.TotalReused()
		tr.gates2Q += two
		tr.stages += staged.NumRydbergStages()
		tr.jobs += sched.NumJobs
		tr.insts += len(sched.Program.Instructions)
		tr.outBytes += int64(len(data))
		return wall, len(data), nil
	}
}

// perLayer turns the traced window into per-layer metrics: times and counts
// are means per operation.
func (tr *compileTrace) perLayer(untracedP50 float64) map[string]metric {
	m := zeroLayerMetrics()
	if tr.ops == 0 {
		return m
	}
	n := float64(tr.ops)
	for l, name := range layerNames {
		m[name] = metric{ms(tr.spans[l]) / n, "ms"}
	}
	m["place.transitions_ms"] = metric{ms(tr.spans[layerPlan]-tr.spans[probeSA]) / n, "ms"}
	m["op.unattributed_ms"] = metric{ms(tr.unattrib) / n, "ms"}
	m["place.moves"] = metric{float64(tr.moves) / n, "count"}
	if tr.gates2Q > 0 {
		m["place.reuse_ratio"] = metric{float64(tr.reused) / float64(tr.gates2Q), "1"}
	}
	m["resynth.stages"] = metric{float64(tr.stages) / n, "count"}
	m["resynth.gates_2q"] = metric{float64(tr.gates2Q) / n, "count"}
	m["schedule.jobs"] = metric{float64(tr.jobs) / n, "count"}
	m["schedule.instructions"] = metric{float64(tr.insts) / n, "count"}
	m["zair.output_kb"] = metric{float64(tr.outBytes) / 1024 / n, "KiB"}
	m["trace.overhead_ms"] = metric{median(tr.pathWallMS) - untracedP50, "ms"}
	m["trace.ops"] = metric{n, "count"}
	return m
}
