// Package schedule implements ZAC's instruction scheduling (paper §VI): it
// turns a placement plan into a timed ZAIR program by (1) splitting each
// movement phase into rearrangement jobs of AOD-compatible movements via
// repeated maximal independent sets (following Enola), (2) analyzing
// dependencies, and (3) assigning jobs to AODs with load-balancing
// longest-job-first scheduling.
//
// The phase structure follows the paper's grouped execution order: move
// qubits into the entanglement zone, fire the Rydberg laser, move idle
// qubits back to storage, repeat (§VI). Single-qubit stages execute
// sequentially between movement phases (the paper's conservative timing
// assumption, §VII-B). Qubit dependencies (Fig. 7b) can only arise across
// phases, which the phase barriers enforce; trap dependencies (Fig. 7a)
// additionally arise *within* a move-in phase when advanced in-zone reuse
// chains site-to-site movements, and are handled by dependency-aware job
// ordering (falling back to single-move jobs if bundling creates job-level
// cycles).
package schedule

import (
	"context"
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"zac/internal/arch"
	"zac/internal/circuit"
	"zac/internal/engine"
	"zac/internal/fidelity"
	"zac/internal/geom"
	"zac/internal/graphalgo"
	"zac/internal/place"
	"zac/internal/telemetry"
	"zac/internal/zair"
)

// Options tunes how a schedule is computed, never what it contains: any
// Options value produces byte-identical programs.
type Options struct {
	// Workers bounds the goroutines used to build the movement conflict
	// graphs; non-positive selects all cores.
	Workers int
}

// minParallelMoves is the movement-phase size below which the conflict graph
// is built sequentially: tiny phases cost less than the fan-out.
const minParallelMoves = 64

// Result is a fully scheduled program plus the statistics the fidelity
// model consumes.
type Result struct {
	Program *zair.Program
	Stats   fidelity.Stats
	NumJobs int
}

// Build schedules the plan into a timed ZAIR program with the default
// Options. The context is checked between stages, so a cancelled compilation
// stops mid-schedule; cancellation never alters the produced program, only
// whether one is produced.
func Build(ctx context.Context, a *arch.Architecture, staged *circuit.Staged, plan *place.Plan) (*Result, error) {
	return BuildWithOptions(ctx, a, staged, plan, Options{})
}

// BuildWithOptions is Build with an explicit worker budget.
func BuildWithOptions(ctx context.Context, a *arch.Architecture, staged *circuit.Staged, plan *place.Plan, opts Options) (*Result, error) {
	if len(a.AODs) == 0 {
		return nil, fmt.Errorf("schedule: architecture has no AODs")
	}
	s := &scheduler{a: a, staged: staged, plan: plan, workers: engine.Workers(opts.Workers)}
	return s.run(ctx)
}

type scheduler struct {
	a       *arch.Architecture
	staged  *circuit.Staged
	plan    *place.Plan
	workers int

	prog  zair.Program
	stats fidelity.Stats
	clock float64
	jobs  int
}

func (s *scheduler) run(ctx context.Context) (*Result, error) {
	s.prog.Name = s.staged.Name
	s.prog.NumQubits = s.staged.NumQubits
	s.stats.Busy = make([]float64, s.staged.NumQubits)

	// Init instruction from the initial placement.
	init := zair.Init{}
	for q, t := range s.plan.Initial {
		init.Locs = append(init.Locs, s.trapQLoc(q, t))
	}
	s.prog.Instructions = append(s.prog.Instructions, init)

	// Walk stages; plan steps align with Rydberg stages in order.
	stepIdx := 0
	for si, st := range s.staged.Stages {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		switch st.Kind {
		case circuit.OneQStage:
			s.emitOneQStage(st)
		case circuit.RydbergStage:
			if stepIdx >= len(s.plan.Steps) {
				return nil, fmt.Errorf("schedule: plan has %d steps but stage %d is Rydberg", len(s.plan.Steps), si)
			}
			step := &s.plan.Steps[stepIdx]
			if step.StageIdx != si {
				return nil, fmt.Errorf("schedule: plan step %d maps to stage %d, expected %d", stepIdx, step.StageIdx, si)
			}
			if err := s.emitMovePhase(ctx, step.MovesIn); err != nil {
				return nil, err
			}
			s.emitRydberg(step)
			if err := s.emitMovePhase(ctx, step.MovesOut); err != nil {
				return nil, err
			}
			stepIdx++
		}
	}
	s.stats.Duration = s.clock
	return &Result{Program: &s.prog, Stats: s.stats, NumJobs: s.jobs}, nil
}

// emitOneQStage appends the stage's U3 gates. Gates with the same unitary
// batch into one ZAIR instruction (the IR's 1qGate carries one unitary and a
// location list, §IX); execution remains sequential per gate — the paper's
// conservative timing model.
func (s *scheduler) emitOneQStage(st circuit.Stage) {
	type key [3]float64
	n := len(st.Gates)
	if n == 0 {
		return
	}
	// Group gates by unitary without per-group slice growth: count members
	// per distinct unitary (first-appearance order), then partition one
	// shared backing array by group offsets. Gate order within a group is
	// unchanged, so the emitted instructions are byte-identical to the old
	// append-per-gate construction.
	ord := make(map[key]int, n)
	var orderKeys []key
	var counts []int
	gidx := make([]int, n) // gate → group ordinal
	for gi, g := range st.Gates {
		k := key{g.Params[0], g.Params[1], g.Params[2]}
		o, ok := ord[k]
		if !ok {
			o = len(orderKeys)
			ord[k] = o
			orderKeys = append(orderKeys, k)
			counts = append(counts, 0)
		}
		counts[o]++
		gidx[gi] = o
	}
	offsets := make([]int, len(counts)+1)
	for o, c := range counts {
		offsets[o+1] = offsets[o] + c
	}
	members := make([]int, n)
	fill := append([]int(nil), offsets[:len(counts)]...)
	for gi, g := range st.Gates {
		o := gidx[gi]
		members[fill[o]] = g.Qubits[0]
		fill[o]++
	}
	for o, k := range orderKeys {
		qubits := members[offsets[o]:offsets[o+1]]
		begin := s.clock
		end := begin + s.a.Times.OneQGate*float64(len(qubits))
		inst := zair.OneQGate{
			Unitary:   k,
			BeginTime: begin,
			EndTime:   end,
		}
		for _, q := range qubits {
			inst.Locs = append(inst.Locs, zair.QLoc{Q: q})
			s.stats.OneQGates++
			s.stats.AddBusy(q, s.a.Times.OneQGate)
		}
		s.prog.Instructions = append(s.prog.Instructions, inst)
		s.clock = end
	}
}

// emitRydberg fires the Rydberg laser over every entanglement zone that
// hosts gates in this step (zones fire in parallel — each has its own
// exposure). Idle qubits inside a firing zone would be excited; ZAC's
// placement keeps the zones free of idle qubits, so Excited stays zero, but
// the accounting is kept general for baseline reuse.
func (s *scheduler) emitRydberg(step *place.Step) {
	zones := map[int]bool{}
	for _, site := range step.Sites {
		zones[site.Zone] = true
	}
	begin := s.clock
	end := begin + s.a.Times.Rydberg
	for zi := range zones {
		s.prog.Instructions = append(s.prog.Instructions, zair.Rydberg{
			ZoneID: zi, BeginTime: begin, EndTime: end,
		})
	}
	for _, g := range step.Gates {
		s.stats.TwoQGates++
		for _, q := range g.Qubits {
			s.stats.AddBusy(q, s.a.Times.Rydberg)
		}
	}
	s.clock = end
}

// emitMovePhase groups the phase's movements into AOD-compatible
// rearrangement jobs, load-balances them across AODs (longest job first to
// the earliest-available AOD), and advances the clock to the phase makespan.
func (s *scheduler) emitMovePhase(ctx context.Context, moves []place.Move) error {
	if len(moves) == 0 {
		return nil
	}
	specs := make([]moveSpec, len(moves))
	for i, m := range moves {
		specs[i] = moveSpec{
			move: m,
			from: m.From.Point(s.a),
			to:   m.To.Point(s.a),
		}
	}
	groups, gerr := groupCompatible(ctx, s.workers, specs)
	if gerr != nil {
		return gerr
	}
	err := s.emitJobsForGroups(specs, groups)
	if err == errCyclicJobs {
		// Bundling created a job-level dependency cycle even though the
		// move-level graph is acyclic (the placement guarantees that).
		// Fall back to one job per move, which always admits a topological
		// order.
		singles := make([][]int, len(specs))
		for i := range specs {
			singles[i] = []int{i}
		}
		err = s.emitJobsForGroups(specs, singles)
	}
	return err
}

var errCyclicJobs = fmt.Errorf("schedule: cyclic trap dependencies within a movement phase")

// emitJobsForGroups builds one rearrangement job per movement group,
// analyzes Fig. 7a trap dependencies between them, and schedules them onto
// the AODs.
func (s *scheduler) emitJobsForGroups(specs []moveSpec, groups [][]int) error {
	// Build one job per group, tracking its source and target traps for the
	// Fig. 7a trap-dependency analysis.
	type builtJob struct {
		job     zair.RearrangeJob
		dur     float64
		targets []zair.QLoc // trap part only (Q zeroed)
		deps    []int       // job indices that must complete first
		placed  bool
		begin   float64
	}
	trapOf := func(l zair.QLoc) zair.QLoc { l.Q = 0; return l }
	jobs := make([]*builtJob, len(groups))
	pickedBy := make(map[zair.QLoc][]int, len(specs)) // trap → jobs picking an atom up there
	for ji, g := range groups {
		ms := make([]zair.MoveSpec, 0, len(g))
		bj := &builtJob{targets: make([]zair.QLoc, 0, len(g))}
		for _, i := range g {
			sp := specs[i]
			begin := s.posQLoc(sp.move.Qubit, sp.move.From)
			end := s.posQLoc(sp.move.Qubit, sp.move.To)
			ms = append(ms, zair.MoveSpec{
				Qubit: sp.move.Qubit, Begin: begin, End: end,
				From: sp.from, To: sp.to,
			})
			pickedBy[trapOf(begin)] = append(pickedBy[trapOf(begin)], ji)
			bj.targets = append(bj.targets, trapOf(end))
		}
		job, timing := zair.BuildJob(0, ms, s.a.Times.AtomTransfer, s.a.MoveTime)
		bj.job, bj.dur = job, timing.Total()
		jobs[ji] = bj
	}

	// Trap dependencies within the phase (Fig. 7a): a job dropping into a
	// trap must wait for the job that picks an atom up from that trap.
	// Advanced in-zone reuse is the only source of such pairs. deps is a
	// set; its order does not affect the schedule.
	for ai, a := range jobs {
		for _, t := range a.targets {
			for _, bi := range pickedBy[t] {
				if bi != ai && !slices.Contains(a.deps, bi) {
					a.deps = append(a.deps, bi)
				}
			}
		}
	}

	// Longest-job-first onto the earliest-available AOD (§VI), respecting
	// trap dependencies: a job becomes eligible once its dependencies are
	// placed, and starts no earlier than their completion.
	avail := make([]float64, len(s.a.AODs))
	for i := range avail {
		avail[i] = s.clock
	}
	phaseEnd := s.clock
	var emitted []zair.RearrangeJob
	for placed := 0; placed < len(jobs); {
		pick := -1
		for i, bj := range jobs {
			if bj.placed {
				continue
			}
			ready := true
			for _, d := range bj.deps {
				if !jobs[d].placed {
					ready = false
					break
				}
			}
			if !ready {
				continue
			}
			if pick == -1 || bj.dur > jobs[pick].dur {
				pick = i
			}
		}
		if pick == -1 {
			return errCyclicJobs
		}
		bj := jobs[pick]
		best := 0
		for i := 1; i < len(avail); i++ {
			if avail[i] < avail[best] {
				best = i
			}
		}
		start := avail[best]
		for _, d := range bj.deps {
			if end := jobs[d].begin + jobs[d].dur; end > start {
				start = end
			}
		}
		bj.begin = start
		bj.job.AODID = s.a.AODs[best].ID
		bj.job.BeginTime = start
		bj.job.EndTime = start + bj.dur
		avail[best] = bj.job.EndTime
		if bj.job.EndTime > phaseEnd {
			phaseEnd = bj.job.EndTime
		}
		bj.placed = true
		placed++
		emitted = append(emitted, bj.job)
	}
	// Commit only after the whole phase scheduled (the caller may retry
	// with different groups on errCyclicJobs). Emit in begin-time order so
	// the instruction stream replays causally.
	sort.SliceStable(emitted, func(i, j int) bool { return emitted[i].BeginTime < emitted[j].BeginTime })
	for _, j := range emitted {
		s.prog.Instructions = append(s.prog.Instructions, j)
		s.jobs++
		dur := j.EndTime - j.BeginTime
		for _, q := range j.Qubits() {
			s.stats.AddBusy(q, dur)
			s.stats.Transfers += 2
		}
	}
	s.clock = phaseEnd
	return nil
}

type moveSpec struct {
	move     place.Move
	from, to geom.Point
}

// compatible reports whether two movements can share one AOD sweep: the
// relative order of their rows and columns must be preserved (AOD tones
// cannot cross), and coincident begin coordinates must stay coincident
// (they would share a tone).
func compatible(a, b moveSpec) bool {
	return axisCompatible(a.from.X, b.from.X, a.to.X, b.to.X) &&
		axisCompatible(a.from.Y, b.from.Y, a.to.Y, b.to.Y)
}

func axisCompatible(a0, b0, a1, b1 float64) bool {
	switch {
	case a0 < b0:
		return a1 < b1
	case a0 > b0:
		return a1 > b1
	default:
		return a1 == b1
	}
}

// groupCompatible partitions movement indices into groups of pairwise
// compatible movements using repeated maximal independent sets over the
// conflict graph (paper §VI, following Enola's O(n² log n) approach). The
// O(n²) compatibility scan fills the upper triangle of a conflict bit
// matrix, one row per move; on wide phases the rows fan out to workers
// goroutines, each row owned by one. The adjacency is then built
// sequentially from the bits, every row carved out of one buffer after a
// degree count, with each adj[k] listing the neighbors below k ascending,
// then those above k ascending, so the partition (and therefore the
// program bytes) is the same at any worker count.
func groupCompatible(ctx context.Context, workers int, specs []moveSpec) ([][]int, error) {
	n := len(specs)
	words := (n + 63) / 64
	conflict := make([]uint64, n*words) // row i, bit j: j > i conflicts with i
	scan := func(i int) {
		row := conflict[i*words : (i+1)*words]
		for j := i + 1; j < n; j++ {
			if !compatible(specs[i], specs[j]) {
				row[j/64] |= 1 << (j % 64)
			}
		}
	}
	if workers > 1 && n >= minParallelMoves {
		ctx, span := telemetry.Start(ctx, "schedule.conflict_graph")
		span.SetInt("moves", n)
		span.SetInt("workers", workers)
		defer span.End()
		if err := engine.ForEach(ctx, workers, n, func(i int) error { scan(i); return nil }); err != nil {
			return nil, err
		}
	} else {
		for i := 0; i < n; i++ {
			scan(i)
		}
	}
	deg := make([]int, n)
	for i := 0; i < n; i++ {
		for w, word := range conflict[i*words : (i+1)*words] {
			deg[i] += bits.OnesCount64(word)
			for ; word != 0; word &= word - 1 {
				deg[w*64+bits.TrailingZeros64(word)]++
			}
		}
	}
	adj := carveRows(deg)
	for i := 0; i < n; i++ {
		for w, word := range conflict[i*words : (i+1)*words] {
			for ; word != 0; word &= word - 1 {
				j := w*64 + bits.TrailingZeros64(word)
				adj[j] = append(adj[j], i)
				adj[i] = append(adj[i], j)
			}
		}
	}
	return graphalgo.PartitionIntoIndependentSets(n, adj), nil
}

// carveRows returns empty adjacency rows with capacity deg[i] each, all
// backed by one buffer, so filling them appends without allocating.
func carveRows(deg []int) [][]int {
	total := 0
	for _, d := range deg {
		total += d
	}
	buf := make([]int, total)
	adj := make([][]int, len(deg))
	for i, d := range deg {
		adj[i], buf = buf[:0:d], buf[d:]
	}
	return adj
}

// trapQLoc renders a storage trap as a ZAIR qloc.
func (s *scheduler) trapQLoc(q int, t arch.TrapRef) zair.QLoc {
	return zair.QLoc{Q: q, A: s.a.Storage[t.Zone].SLMs[t.SLM].ID, R: t.Row, C: t.Col}
}

// posQLoc renders any position as a ZAIR qloc.
func (s *scheduler) posQLoc(q int, p place.Pos) zair.QLoc {
	if p.InStorage {
		return s.trapQLoc(q, p.Trap)
	}
	z := s.a.Entanglement[p.Site.Zone]
	return zair.QLoc{Q: q, A: z.SLMs[p.Slot].ID, R: p.Site.Row, C: p.Site.Col}
}
