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
	"cmp"
	"context"
	"fmt"
	"math/bits"
	"slices"

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

	// Scratch reused by every stage and movement phase of one schedule.
	unitary map[[3]float64]int // 1Q stage: unitary → group ordinal
	specs   []moveSpec
	ms      []zair.MoveSpec
	built   []builtJob
	picks   []pickup
	emitted []zair.RearrangeJob
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
	n := len(st.Gates)
	if n == 0 {
		return
	}
	// Group gates by unitary in first-appearance order: count members per
	// distinct unitary, then carve every instruction's locations out of one
	// array by group offsets. Gate order within a group is circuit order.
	if s.unitary == nil {
		s.unitary = make(map[[3]float64]int, n)
	}
	clear(s.unitary)
	var keys [][3]float64
	offsets := []int{0}    // offsets[o+1] counts, then ends, group o
	gidx := make([]int, n) // gate → group ordinal
	for gi, g := range st.Gates {
		k := [3]float64{g.Params[0], g.Params[1], g.Params[2]}
		o, ok := s.unitary[k]
		if !ok {
			o = len(keys)
			s.unitary[k] = o
			keys = append(keys, k)
			offsets = append(offsets, 0)
		}
		offsets[o+1]++
		gidx[gi] = o
	}
	for o, sum := 1, 0; o < len(offsets); o++ {
		offsets[o], sum = sum, sum+offsets[o]
	}
	locs := make([]zair.QLoc, n)
	for gi, g := range st.Gates {
		o := gidx[gi]
		locs[offsets[o+1]] = zair.QLoc{Q: g.Qubits[0]}
		offsets[o+1]++
	}
	for o, k := range keys {
		group := locs[offsets[o]:offsets[o+1]:offsets[o+1]]
		begin := s.clock
		end := begin + s.a.Times.OneQGate*float64(len(group))
		for _, l := range group {
			s.stats.OneQGates++
			s.stats.AddBusy(l.Q, s.a.Times.OneQGate)
		}
		s.prog.Instructions = append(s.prog.Instructions, zair.OneQGate{
			Unitary:   k,
			Locs:      group,
			BeginTime: begin,
			EndTime:   end,
		})
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
	specs := slices.Grow(s.specs[:0], len(moves))
	for _, m := range moves {
		specs = append(specs, moveSpec{
			move:  m,
			from:  m.From.Point(s.a),
			to:    m.To.Point(s.a),
			begin: s.posQLoc(m.Qubit, m.From),
			end:   s.posQLoc(m.Qubit, m.To),
		})
	}
	s.specs = specs
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

// builtJob is one movement group's rearrangement job while its phase is
// scheduled.
type builtJob struct {
	job    zair.RearrangeJob
	dur    float64
	deps   []int // job indices that must complete first
	placed bool
	begin  float64
}

// pickup records that a job picks an atom up at a trap (Q zeroed).
type pickup struct {
	at  zair.QLoc
	job int
}

func compareQLoc(a, b zair.QLoc) int {
	if c := cmp.Compare(a.A, b.A); c != 0 {
		return c
	}
	if c := cmp.Compare(a.R, b.R); c != 0 {
		return c
	}
	return cmp.Compare(a.C, b.C)
}

// emitJobsForGroups builds one rearrangement job per movement group,
// analyzes Fig. 7a trap dependencies between them, and schedules them onto
// the AODs.
func (s *scheduler) emitJobsForGroups(specs []moveSpec, groups [][]int) error {
	trapOf := func(l zair.QLoc) zair.QLoc { l.Q = 0; return l }
	if cap(s.built) < len(groups) {
		s.built = make([]builtJob, len(groups))
	}
	jobs := s.built[:len(groups)]
	picks := s.picks[:0]
	for ji, g := range groups {
		ms := s.ms[:0]
		for _, i := range g {
			sp := &specs[i]
			ms = append(ms, zair.MoveSpec{
				Qubit: sp.move.Qubit, Begin: sp.begin, End: sp.end,
				From: sp.from, To: sp.to,
			})
			picks = append(picks, pickup{at: trapOf(sp.begin), job: ji})
		}
		s.ms = ms
		job, timing := zair.BuildJob(0, ms, s.a.Times.AtomTransfer, s.a.MoveTime)
		jobs[ji] = builtJob{job: job, dur: timing.Total(), deps: jobs[ji].deps[:0]}
	}
	s.picks = picks

	// Trap dependencies within the phase (Fig. 7a): a job dropping into a
	// trap must wait for the job that picks an atom up from that trap.
	// Advanced in-zone reuse is the only source of such pairs. deps is a
	// set; its order does not affect the schedule.
	slices.SortFunc(picks, func(x, y pickup) int { return compareQLoc(x.at, y.at) })
	for ai := range jobs {
		a := &jobs[ai]
		for _, i := range groups[ai] {
			t := trapOf(specs[i].end)
			k, _ := slices.BinarySearchFunc(picks, t, func(p pickup, t zair.QLoc) int { return compareQLoc(p.at, t) })
			for ; k < len(picks) && picks[k].at == t; k++ {
				if bi := picks[k].job; bi != ai && !slices.Contains(a.deps, bi) {
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
	emitted := s.emitted[:0]
	for placed := 0; placed < len(jobs); {
		pick := -1
		for i := range jobs {
			bj := &jobs[i]
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
		bj := &jobs[pick]
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
	s.emitted = emitted
	// Commit only after the whole phase scheduled (the caller may retry
	// with different groups on errCyclicJobs). Emit in begin-time order so
	// the instruction stream replays causally.
	slices.SortStableFunc(emitted, func(x, y zair.RearrangeJob) int { return cmp.Compare(x.BeginTime, y.BeginTime) })
	for _, j := range emitted {
		s.prog.Instructions = append(s.prog.Instructions, j)
		s.jobs++
		dur := j.EndTime - j.BeginTime
		for _, row := range j.BeginLocs {
			for _, l := range row {
				s.stats.AddBusy(l.Q, dur)
				s.stats.Transfers += 2
			}
		}
	}
	s.clock = phaseEnd
	return nil
}

type moveSpec struct {
	move       place.Move
	from, to   geom.Point
	begin, end zair.QLoc
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
// goroutines, each row owned by one, and each row first checks the
// caller's context. The lower triangle is then mirrored in place, so the
// partition reads the same symmetric matrix (and the program bytes are the
// same) at any worker count.
func groupCompatible(ctx context.Context, workers int, specs []moveSpec) ([][]int, error) {
	n := len(specs)
	words := (n + 63) / 64
	conflict := make([]uint64, n*words) // row i, bit j: i and j conflict
	scan := func(i int) {
		row := conflict[i*words : (i+1)*words]
		for j := i + 1; j < n; j++ {
			if !compatible(specs[i], specs[j]) {
				row[j/64] |= 1 << (j % 64)
			}
		}
	}
	if workers > 1 && n >= minParallelMoves {
		wctx, span := telemetry.Start(ctx, "schedule.conflict_graph")
		span.SetInt("moves", n)
		span.SetInt("workers", workers)
		defer span.End()
		if err := engine.ForEach(wctx, workers, n, func(i int) error {
			if err := ctx.Err(); err != nil {
				return err
			}
			scan(i)
			return nil
		}); err != nil {
			return nil, err
		}
	} else {
		for i := 0; i < n; i++ {
			scan(i)
		}
	}
	// Bottom row first: row i still holds only its upper triangle when its
	// bits are copied into the rows below the diagonal.
	for i := n - 1; i >= 0; i-- {
		for w, word := range conflict[i*words : (i+1)*words] {
			for ; word != 0; word &= word - 1 {
				j := w*64 + bits.TrailingZeros64(word)
				conflict[j*words+i/64] |= 1 << (i % 64)
			}
		}
	}
	return graphalgo.PartitionIntoIndependentSets(n, conflict), nil
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
