package place

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"zac/internal/arch"
	"zac/internal/circuit"
	"zac/internal/cover"
	"zac/internal/engine"
	"zac/internal/geom"
	"zac/internal/telemetry"
)

// Options selects the placement strategy; the four ablation settings of the
// paper's Fig. 11 correspond to:
//
//	Vanilla:            UseSA=false Dynamic=false Reuse=false
//	dynPlace:           UseSA=false Dynamic=true  Reuse=false
//	dynPlace+reuse:     UseSA=false Dynamic=true  Reuse=true
//	SA+dynPlace+reuse:  UseSA=true  Dynamic=true  Reuse=true  (full ZAC)
type Options struct {
	UseSA   bool
	Dynamic bool
	Reuse   bool
	// AdvancedReuse additionally keeps every qubit that the next Rydberg
	// stage needs inside the entanglement zone, moving it directly between
	// Rydberg sites instead of round-tripping through storage — the paper's
	// §X future-work optimization ("allowing movements within entanglement
	// zones for more advanced qubit reuse"). Implies Reuse.
	AdvancedReuse bool
	SAIterations  int     // default 1000 (paper §V-A)
	Expansion     int     // δ candidate-box half-width (default 2)
	KNeighbors    int     // k for return candidates (default 2)
	Alpha         float64 // lookahead weight α (default 0.1, Eq. 3)
	Seed          int64
	// SARestarts runs this many independent annealing chains for the initial
	// placement, chain i seeded with Seed+i, keeping the (cost, restart
	// index)-minimal result. The chains run concurrently under Workers, but
	// the winner is scheduling-independent; the default 1 reproduces the
	// single-chain bytes exactly. Unlike Workers, SARestarts changes the
	// produced plan, so it participates in plan identity.
	SARestarts int
	// Workers bounds the goroutines one BuildPlan may use across restart
	// chains (Workers=1 runs them in order on the calling goroutine; stage
	// transitions always run there); non-positive selects all cores.
	// Workers only changes how fast a plan is computed, never its bytes, so
	// Canonical() strips it from plan identity.
	Workers int
}

// Default returns the full ZAC configuration.
func Default() Options {
	return Options{UseSA: true, Dynamic: true, Reuse: true,
		SAIterations: 1000, Expansion: 2, KNeighbors: 2, Alpha: 0.1, Seed: 1}
}

func (o *Options) fill() {
	if o.SAIterations <= 0 {
		o.SAIterations = 1000
	}
	if o.Expansion <= 0 {
		o.Expansion = 2
	}
	if o.KNeighbors <= 0 {
		o.KNeighbors = 2
	}
	if o.Alpha == 0 {
		o.Alpha = 0.1
	}
	if o.SARestarts <= 0 {
		o.SARestarts = 1
	}
	if o.Workers <= 0 {
		o.Workers = engine.Workers(0)
	}
}

// Canonical returns the options in the form cache keys must use: defaults
// filled, and the execution-only Workers knob zeroed. Two Options with equal
// Canonical() values produce byte-identical plans.
func (o Options) Canonical() Options {
	o.fill()
	o.Workers = 0
	return o
}

// Step is the placement outcome for one Rydberg stage: the gate→site
// assignment, which gates reuse their site from the previous stage, the
// movements into the entanglement zone before the stage, and the movements
// back to storage after it.
type Step struct {
	StageIdx int // index into Staged.Stages
	Gates    []circuit.Gate
	Sites    []arch.SiteRef
	Slots    [][]int // per gate: site slot of each of its qubits
	Reused   []bool
	MovesIn  []Move
	MovesOut []Move
}

// NumReused counts reused gates in the step.
func (s *Step) NumReused() int {
	n := 0
	for _, r := range s.Reused {
		if r {
			n++
		}
	}
	return n
}

// Plan is the complete placement of a staged circuit on an architecture.
type Plan struct {
	Arch      *arch.Architecture
	Staged    *circuit.Staged
	NumQubits int
	Initial   []arch.TrapRef
	Steps     []Step
}

// TotalMoves counts individual qubit movements across the plan.
func (p *Plan) TotalMoves() int {
	n := 0
	for _, s := range p.Steps {
		n += len(s.MovesIn) + len(s.MovesOut)
	}
	return n
}

// TotalReused counts reused gates across the plan.
func (p *Plan) TotalReused() int {
	n := 0
	for i := range p.Steps {
		n += p.Steps[i].NumReused()
	}
	return n
}

// planner carries the evolving placement state. Storage occupancy is a
// dense trap-ordinal table, and one scratch set serves every solve.
type planner struct {
	a    *arch.Architecture
	opts Options
	pos  []Pos          // current position per qubit
	home []arch.TrapRef // last storage trap per qubit
	occ  []int32        // trap ordinal → qubit, -1 = free
	sc   *transitionScratch
	gap  float64    // least storage-trap↔site-slot distance (noReuseBound)
	cov  *cover.Set // nil unless the context carries a collector
}

// newPlanner starts placement state with every qubit at its initial trap.
// occ is the occupancy of initial if the caller has it (the annealer
// leaves one), which the planner then owns; nil builds it.
func newPlanner(a *arch.Architecture, numQubits int, opts Options, initial []arch.TrapRef, occ []int32, cov *cover.Set) *planner {
	pl := &planner{
		a: a, opts: opts,
		pos:  make([]Pos, numQubits),
		home: append([]arch.TrapRef(nil), initial...),
		occ:  occ,
		sc:   newTransitionScratch(a, numQubits),
		gap:  storageSlotGap(a),
		cov:  cov,
	}
	if occ == nil {
		pl.occ = newOccupancy(a)
	}
	for q, t := range initial {
		pl.pos[q] = StoragePos(t)
		pl.occ[a.TrapOrdinal(t)] = int32(q)
	}
	return pl
}

// BuildPlan runs the full placement pipeline (§V). The context is checked
// between stage transitions, so a cancelled compilation stops mid-plan;
// cancellation never alters the produced plan, only whether one is
// produced.
func BuildPlan(ctx context.Context, a *arch.Architecture, staged *circuit.Staged, opts Options) (*Plan, error) {
	return StreamPlan(ctx, a, staged, opts, nil)
}

// StreamPlan is BuildPlan that also hands each step to final, in order and
// on the calling goroutine, as soon as no later transition changes it: step
// t once transition t+1 commits its returns, the last step after the final
// returns. plan is the plan under construction. Until StreamPlan returns,
// final's consumers may read plan.Initial and the steps already handed out,
// but not plan.Steps, which is still being appended to; its capacity is the
// Rydberg stage count, so the handed-out pointers stay valid. A nil final
// hands out nothing.
func StreamPlan(ctx context.Context, a *arch.Architecture, staged *circuit.Staged, opts Options, final func(plan *Plan, step *Step)) (*Plan, error) {
	opts.fill()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := staged.Validate(); err != nil {
		return nil, err
	}
	if staged.NumQubits > a.TotalStorageTraps() {
		return nil, fmt.Errorf("place: circuit needs %d qubits but architecture stores %d",
			staged.NumQubits, a.TotalStorageTraps())
	}

	cov := cover.From(ctx)
	var initial []arch.TrapRef
	var occ []int32
	var err error
	if opts.UseSA {
		cov.Hit("place:init:sa")
		if opts.SARestarts <= 1 {
			r := rand.New(rand.NewSource(opts.Seed))
			initial, occ, _, err = saInitial(a, staged, opts.SAIterations, r)
		} else {
			initial, occ, err = saRestarts(ctx, a, staged, opts, cov)
		}
	} else {
		cov.Hit("place:init:trivial")
		initial, err = TrivialInitial(a, staged.NumQubits)
	}
	if err != nil {
		return nil, err
	}

	pl := newPlanner(a, staged.NumQubits, opts, initial, occ, cov)
	ryd := staged.RydbergStages()
	plan := &Plan{Arch: a, Staged: staged, NumQubits: staged.NumQubits, Initial: initial,
		Steps: make([]Step, 0, len(ryd))}
	for t, si := range ryd {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		cur := staged.Stages[si].Gates
		var next []circuit.Gate
		if t+1 < len(ryd) {
			next = staged.Stages[ryd[t+1]].Gates
		}
		var prev *Step
		if len(plan.Steps) > 0 {
			prev = &plan.Steps[len(plan.Steps)-1]
		}

		reuse := opts.Reuse && prev != nil
		if reuse {
			cov.Hit("place:transition:candidates")
		} else {
			cov.Hit("place:transition:plain")
		}
		sol, err := pl.solveTransition(prev, cur, next, reuse)
		if err != nil {
			return nil, err
		}
		// The reuse solve's error is authoritative, and the no-reuse
		// candidate wins only if strictly cheaper, so it is solved only when
		// its movement lower bound leaves it that chance. A NaN bound
		// (degenerate geometry) never prunes.
		if reuse {
			outcome := "place:transition:reuse-wins"
			if !(pl.noReuseBound(prev, cur) >= sol.cost) {
				cov.Hit("place:transition:noreuse-solved")
				if alt, err := pl.solveTransition(prev, cur, next, false); err == nil && alt.cost < sol.cost {
					sol, outcome = alt, "place:transition:noreuse-wins"
				}
			}
			cov.Hit(outcome)
		}
		pl.commit(prev, sol)
		plan.Steps = append(plan.Steps, Step{
			StageIdx: si,
			Gates:    cur,
			Sites:    sol.sites,
			Slots:    sol.slots,
			Reused:   sol.reused,
			MovesIn:  sol.movesIn,
		})
		if prev != nil && final != nil {
			final(plan, prev)
		}
	}

	// Final returns: everything still in the entanglement zone goes home.
	if len(plan.Steps) > 0 {
		cov.Hit("place:final-returns")
		last := &plan.Steps[len(plan.Steps)-1]
		sol, err := pl.solveReturns(last, nil, nil)
		if err != nil {
			return nil, err
		}
		pl.applyReturns(sol)
		last.MovesOut = sol
		if final != nil {
			final(plan, last)
		}
	}
	return plan, nil
}

// saChain is one restart chain's outcome.
type saChain struct {
	traps []arch.TrapRef
	occ   []int32
	cost  float64
}

// saRestarts runs Options.SARestarts independent annealing chains on at most
// Options.Workers goroutines and returns the winner. Chain i is seeded with
// Seed+i, results are assembled by chain index, and the winner minimizes
// (best cost, chain index), so the outcome is independent of scheduling and
// machine — chain 0 is bit-identical to a single-chain SAInitialWithCost run.
// The winner's occupancy comes back with its traps.
func saRestarts(ctx context.Context, a *arch.Architecture, staged *circuit.Staged, opts Options, cov *cover.Set) ([]arch.TrapRef, []int32, error) {
	cov.Hit("place:init:sa-restarts")
	ctx, span := telemetry.Start(ctx, "place.sa_restarts")
	span.SetInt("restarts", opts.SARestarts)
	span.SetInt("workers", opts.Workers)
	chains, err := engine.Map(ctx, opts.Workers, opts.SARestarts, func(i int) (saChain, error) {
		r := rand.New(rand.NewSource(opts.Seed + int64(i)))
		traps, occ, cost, err := saInitial(a, staged, opts.SAIterations, r)
		return saChain{traps: traps, occ: occ, cost: cost}, err
	})
	if err != nil {
		span.End()
		return nil, nil, err
	}
	best := 0
	for i := 1; i < len(chains); i++ {
		if chains[i].cost < chains[best].cost {
			best = i
		}
	}
	span.SetInt("winner", best)
	span.End()
	return chains[best].traps, chains[best].occ, nil
}

// transitionSolution is one candidate outcome of a stage transition.
type transitionSolution struct {
	sites    []arch.SiteRef
	slots    [][]int
	reused   []bool
	movesIn  []Move
	movesOut []Move // returns emitted after the *previous* stage
	cost     float64
}

// solveTransition places the gates of cur (optionally reusing sites from
// prev) and computes the returns of the prev-stage qubits that do not stay.
// Under advanced reuse it retries with offending qubits banned from staying
// until the in-zone movement graph is acyclic (cyclic trap swaps cannot be
// realized by sequential rearrangement jobs).
func (pl *planner) solveTransition(prev *Step, cur, next []circuit.Gate, useReuse bool) (transitionSolution, error) {
	sc := pl.sc
	clear(sc.banned)
	for attempt := 0; ; attempt++ {
		sol, err := pl.solveTransitionOnce(prev, cur, next, useReuse)
		if err != nil {
			return sol, err
		}
		q, cyclic := sc.findMoveCycle(pl.a, sol.movesIn)
		if !cyclic || attempt >= 2*len(cur)+4 {
			return sol, nil
		}
		pl.cov.Hit("place:cycle-fallback")
		sc.banned[q] = true
	}
}

// findMoveCycle looks for a cycle in the trap-succession graph of in-zone
// moves (move a feeds move b when a's target trap is b's source trap) and
// returns one participating qubit. Each move has at most one successor, so
// the walk is an iterative chain traversal over a dense move-index table
// and an []int8 color array instead of the recursive map-based search.
func (sc *transitionScratch) findMoveCycle(a *arch.Architecture, moves []Move) (qubit int, cyclic bool) {
	maxSlots := a.MaxSiteSlots()
	sc.srcTouched = sc.srcTouched[:0]
	sc.zoneMoves = sc.zoneMoves[:0]
	for i, m := range moves {
		if !m.From.InStorage {
			key := a.SiteOrdinal(m.From.Site)*maxSlots + m.From.Slot
			sc.moveAt[key] = int32(i)
			sc.srcTouched = append(sc.srcTouched, key)
			sc.zoneMoves = append(sc.zoneMoves, i)
		}
	}
	defer func() {
		for _, k := range sc.srcTouched {
			sc.moveAt[k] = -1
		}
	}()
	if cap(sc.mstate) < len(moves) {
		sc.mstate = make([]int8, len(moves))
	}
	sc.mstate = sc.mstate[:len(moves)]
	clear(sc.mstate)
	succ := func(i int) int {
		to := moves[i].To
		if to.InStorage {
			return -1
		}
		j := sc.moveAt[a.SiteOrdinal(to.Site)*maxSlots+to.Slot]
		if j < 0 || int(j) == i {
			return -1
		}
		return int(j)
	}
	for _, start := range sc.zoneMoves {
		if sc.mstate[start] != 0 {
			continue
		}
		sc.mpath = sc.mpath[:0]
		cur := start
		for {
			sc.mstate[cur] = 1
			sc.mpath = append(sc.mpath, cur)
			j := succ(cur)
			if j < 0 || sc.mstate[j] == 2 {
				break
			}
			if sc.mstate[j] == 1 {
				return moves[j].Qubit, true
			}
			cur = j
		}
		for _, i := range sc.mpath {
			sc.mstate[i] = 2
		}
	}
	return 0, false
}

// solveTransitionOnce performs one placement attempt with the scratch's
// banned set excluding qubits from advanced staying.
func (pl *planner) solveTransitionOnce(prev *Step, cur, next []circuit.Gate, useReuse bool) (transitionSolution, error) {
	a, sc := pl.a, pl.sc
	sol := transitionSolution{
		sites:  make([]arch.SiteRef, len(cur)),
		slots:  make([][]int, len(cur)),
		reused: make([]bool, len(cur)),
	}

	// 1. Reuse matching against the previous stage.
	var reuseOf []int
	if useReuse && prev != nil {
		reuseOf = sc.reuseMatch(prev.Gates, cur)
	}
	clear(sc.reserved)
	clear(sc.stay)
	stay := sc.stay // qubits that keep their site
	for j, pi := range reuseOf {
		if pi < 0 {
			continue
		}
		sol.reused[j] = true
		sol.sites[j] = prev.Sites[pi]
		sc.reserved[a.SiteOrdinal(prev.Sites[pi])] = true
		for _, q := range cur[j].Qubits {
			for _, pq := range prev.Gates[pi].Qubits {
				if q == pq {
					stay[q] = true
				}
			}
		}
	}
	// Advanced reuse (§X): every zone-resident qubit the current stage
	// needs skips the storage round trip and moves directly between sites
	// (unless banned to break a trap-dependency cycle). Their current sites
	// are held until they vacate, so foreign gates must not target those
	// sites within the same movement phase.
	var held map[arch.SiteRef][]int
	if useReuse && pl.opts.AdvancedReuse && prev != nil {
		held = map[arch.SiteRef][]int{}
		for _, g := range cur {
			for _, q := range g.Qubits {
				if !pl.pos[q].InStorage && !sc.banned[q] {
					stay[q] = true
				}
			}
		}
		for _, g := range cur {
			for _, q := range g.Qubits {
				if stay[q] && !pl.pos[q].InStorage {
					held[pl.pos[q].Site] = append(held[pl.pos[q].Site], q)
				}
			}
		}
		if len(held) > 0 {
			pl.cov.Hit("place:advanced-stay")
		}
	}

	// 2. Returns for the previous stage's non-staying qubits. These execute
	// before the moves into the current stage, so gate placement and
	// moves-in below must see post-return positions.
	if prev != nil {
		returns, err := pl.solveReturns(prev, stay, cur)
		if err != nil {
			return sol, err
		}
		sol.movesOut = returns
	}
	sc.posView = append(sc.posView[:0], pl.pos...)
	posView := sc.posView
	for _, m := range sol.movesOut {
		posView[m.Qubit] = m.To
	}

	// 3. Provisional lookahead matching cur → next for the §V-B2 cost term.
	sc.lookahead = sc.lookahead[:0]
	for range cur {
		sc.lookahead = append(sc.lookahead, -1)
	}
	if useReuse && len(next) > 0 {
		la := sc.reuseMatch(cur, next)
		for nj, cj := range la {
			if cj < 0 {
				continue
			}
			// partner = the qubit of next[nj] not shared with cur[cj]
			for _, q := range next[nj].Qubits {
				if q != cur[cj].Qubits[0] && q != cur[cj].Qubits[1] {
					sc.lookahead[cj] = int32(q)
				}
			}
		}
	}

	// 4. Gate placement for non-reused gates.
	sc.gateIdx = sc.gateIdx[:0]
	for j := range cur {
		if !sol.reused[j] {
			sc.gateIdx = append(sc.gateIdx, j)
		}
	}
	assign, _, err := gatePlacement(a, cur, sc.gateIdx, posView, sc.lookahead, held, pl.opts.Expansion, sc, pl.cov)
	if err != nil {
		return sol, err
	}
	for k, j := range sc.gateIdx {
		sol.sites[j] = assign[k]
	}

	// 5. Slot assignment and moves-in (from post-return positions). A qubit
	// already sitting at the gate's assigned site keeps its slot, so its
	// (possibly zero-length) move never conflicts with its partner's drop
	// within the same movement phase; this covers both classic reuse (the
	// staying qubit) and advanced reuse (zone residents from other sites).
	// Remaining qubits take the free slots left-to-right by current x
	// position, for any site arity (multi-trap sites, §III).
	// Every gate's slots are a window of one array, and the moves are
	// counted before they are collected.
	width := 0
	for _, g := range cur {
		width += len(g.Qubits)
	}
	slotBuf := make([]int, width)
	nIn := 0
	for j, g := range cur {
		sol.slots[j], slotBuf = slotBuf[:len(g.Qubits):len(g.Qubits)], slotBuf[len(g.Qubits):]
		assignSlots(a, g.Qubits, posView, sol.sites[j], sol.slots[j], sc)
		for k, q := range g.Qubits {
			if !posView[q].SameLocation(SitePos(sol.sites[j], sol.slots[j][k])) {
				nIn++
			}
		}
	}
	if nIn > 0 {
		sol.movesIn = make([]Move, 0, nIn)
	}
	for j, g := range cur {
		for k, q := range g.Qubits {
			target := SitePos(sol.sites[j], sol.slots[j][k])
			if !posView[q].SameLocation(target) {
				sol.movesIn = append(sol.movesIn, Move{Qubit: q, From: posView[q], To: target})
			}
		}
	}

	// 6. Solution cost: the √distance surrogate summed over all movements.
	for _, m := range sol.movesIn {
		sol.cost += moveCost(a, m.From.Point(a), m.To.Point(a))
	}
	for _, m := range sol.movesOut {
		sol.cost += moveCost(a, m.From.Point(a), m.To.Point(a))
	}
	return sol, nil
}

// noReuseBound is a lower bound on the no-reuse candidate's cost for the
// transition prev → cur. Without reuse nothing stays, so every zone qubit
// of prev returns to some storage trap, and then every qubit of cur moves
// from storage to a site slot: a qubit in storage now at least as far as its
// nearest slot, a qubit in the zone now (it returns first) at least pl.gap.
// solveTransitionOnce sums the same per-move √distance terms in another
// order, so the bound gives up a small relative margin to rounding.
func (pl *planner) noReuseBound(prev *Step, cur []circuit.Gate) float64 {
	a := pl.a
	bound := 0.0
	for _, g := range prev.Gates {
		for _, q := range g.Qubits {
			if p := pl.pos[q]; !p.InStorage {
				pt := p.Point(a)
				bound += moveCost(a, pt, a.TrapPos(a.NearestStorageTrap(pt)))
			}
		}
	}
	for _, g := range cur {
		for _, q := range g.Qubits {
			if p := pl.pos[q]; p.InStorage {
				bound += math.Sqrt(nearestSlotDist(a, p.Point(a)))
			} else {
				bound += math.Sqrt(pl.gap)
			}
		}
	}
	return bound * (1 - 1e-9)
}

// nearestSlotDist is the distance from p to the nearest trap of any Rydberg
// site slot: slot k of site (r, c) is trap (r, c) of the zone's k-th SLM.
func nearestSlotDist(a *arch.Architecture, p geom.Point) float64 {
	d := math.Inf(1)
	for _, z := range a.Entanglement {
		for _, s := range z.SLMs {
			s.Rows, s.Cols = z.SiteRows(), z.SiteCols()
			r, c := s.NearestTrap(p)
			d = min(d, s.TrapPos(r, c).Dist(p))
		}
	}
	return d
}

// storageSlotGap is the least distance between any storage trap and any
// Rydberg site slot trap. Both are lattices, so the least squared distance
// is the least x gap squared plus the least y gap squared.
func storageSlotGap(a *arch.Architecture) float64 {
	gap := math.Inf(1)
	for _, sz := range a.Storage {
		for _, s := range sz.SLMs {
			for _, z := range a.Entanglement {
				for _, e := range z.SLMs {
					dx := axisGap(s.Offset.X, s.SepX, s.Cols, e.Offset.X, e.SepX, z.SiteCols())
					dy := axisGap(s.Offset.Y, s.SepY, s.Rows, e.Offset.Y, e.SepY, z.SiteRows())
					gap = min(gap, math.Sqrt(dx*dx+dy*dy))
				}
			}
		}
	}
	return gap
}

// axisGap is the least |(o1 + i·d1) − (o2 + j·d2)| over i < n1, j < n2.
func axisGap(o1, d1 float64, n1 int, o2, d2 float64, n2 int) float64 {
	g := math.Inf(1)
	for i := 0; i < n1; i++ {
		x := o1 + float64(i)*d1
		j := max(0, min(float64(n2-1), math.Round((x-o2)/d2)))
		g = min(g, math.Abs(x-(o2+j*d2)))
	}
	return g
}

// assignSlots maps a gate's qubits to site slots, written to slots: qubits
// already at the site keep their slot; the rest take the free slots in
// ascending order, matched to qubits in ascending current-x order.
func assignSlots(a *arch.Architecture, qubits []int, pos []Pos, site arch.SiteRef, slots []int, sc *transitionScratch) {
	clear(sc.slotTaken)
	sc.pending = sc.pending[:0] // indices into qubits
	for k, q := range qubits {
		if !pos[q].InStorage && pos[q].Site == site {
			slots[k] = pos[q].Slot
			sc.slotTaken[pos[q].Slot] = true
		} else {
			sc.pending = append(sc.pending, k)
		}
	}
	// Order pending qubits by current x.
	pending := sc.pending
	sort.Slice(pending, func(i, j int) bool {
		return pos[qubits[pending[i]]].Point(a).X < pos[qubits[pending[j]]].Point(a).X
	})
	next := 0
	for _, k := range pending {
		for sc.slotTaken[next] {
			next++
		}
		slots[k] = next
		sc.slotTaken[next] = true
	}
}

// solveReturns computes the storage returns for every qubit of prev that is
// not in the stay set, using dynamic matching (§V-B3) or the static home
// trap, with cur (the upcoming stage) defining related qubits.
func (pl *planner) solveReturns(prev *Step, stay []bool, cur []circuit.Gate) ([]Move, error) {
	a, sc := pl.a, pl.sc
	sc.leaving = sc.leaving[:0]
	for _, g := range prev.Gates {
		for _, q := range g.Qubits {
			if (stay == nil || !stay[q]) && !pl.pos[q].InStorage {
				sc.leaving = append(sc.leaving, q)
			}
		}
	}
	leaving := sc.leaving
	if len(leaving) == 0 {
		return nil, nil
	}
	for q := range sc.related {
		sc.related[q] = -1
	}
	for _, g := range cur {
		q1, q2 := g.Qubits[0], g.Qubits[1]
		sc.related[q1] = int32(q2)
		sc.related[q2] = int32(q1)
	}

	moves := make([]Move, 0, len(leaving))
	if pl.opts.Dynamic {
		pl.cov.Hit("place:returns:dynamic")
		assign, _, err := returnPlacement(a, leaving, pl.pos, pl.home, sc.related, pl.occ, pl.opts.KNeighbors, pl.opts.Alpha, sc, pl.cov)
		if err != nil {
			return nil, err
		}
		for i, q := range leaving {
			moves = append(moves, Move{Qubit: q, From: pl.pos[q], To: StoragePos(assign[i])})
		}
	} else {
		pl.cov.Hit("place:returns:static")
		for _, q := range leaving {
			moves = append(moves, Move{Qubit: q, From: pl.pos[q], To: StoragePos(pl.home[q])})
		}
	}
	return moves, nil
}

// commit applies a chosen transition: attach returns to the previous step,
// update positions, occupancy and home traps.
func (pl *planner) commit(prev *Step, sol transitionSolution) {
	if prev != nil {
		prev.MovesOut = sol.movesOut
		pl.applyReturns(sol.movesOut)
	}
	for _, m := range sol.movesIn {
		if m.From.InStorage {
			pl.occ[pl.a.TrapOrdinal(m.From.Trap)] = -1
		}
		pl.pos[m.Qubit] = m.To
	}
}

// applyReturns updates state for storage returns.
func (pl *planner) applyReturns(moves []Move) {
	for _, m := range moves {
		pl.pos[m.Qubit] = m.To
		pl.occ[pl.a.TrapOrdinal(m.To.Trap)] = int32(m.Qubit)
		pl.home[m.Qubit] = m.To.Trap
	}
}

// Validate checks plan invariants: every stage's gates sit at distinct
// sites, moves are consistent with positions, and no two qubits ever occupy
// the same trap between stages. Used by tests and callers as a safety net.
//
//zac:keep plan invariant check that the place and core tests run on compiled plans
func (p *Plan) Validate() error {
	pos := make([]Pos, p.NumQubits)
	occ := map[arch.TrapRef]int{}
	for q, t := range p.Initial {
		pos[q] = StoragePos(t)
		if prev, taken := occ[t]; taken {
			return fmt.Errorf("place: initial traps collide for qubits %d and %d", prev, q)
		}
		occ[t] = q
	}
	for si, step := range p.Steps {
		if len(step.Sites) != len(step.Gates) || len(step.Slots) != len(step.Gates) || len(step.Reused) != len(step.Gates) {
			return fmt.Errorf("place: step %d has inconsistent lengths", si)
		}
		seenSite := map[arch.SiteRef]int{}
		for gi, s := range step.Sites {
			if prev, dup := seenSite[s]; dup {
				return fmt.Errorf("place: step %d gates %d and %d share site %+v", si, prev, gi, s)
			}
			seenSite[s] = gi
		}
		for _, m := range step.MovesIn {
			if !pos[m.Qubit].SameLocation(m.From) {
				return fmt.Errorf("place: step %d move-in of qubit %d from stale position", si, m.Qubit)
			}
			if m.From.InStorage {
				delete(occ, m.From.Trap)
			}
			pos[m.Qubit] = m.To
		}
		// At Rydberg time every gate qubit must be at its assigned slot.
		for gi, g := range step.Gates {
			for k, q := range g.Qubits {
				want := SitePos(step.Sites[gi], step.Slots[gi][k])
				if !pos[q].SameLocation(want) {
					return fmt.Errorf("place: step %d gate %d qubit %d not at its site", si, gi, q)
				}
			}
		}
		for _, m := range step.MovesOut {
			if !pos[m.Qubit].SameLocation(m.From) {
				return fmt.Errorf("place: step %d move-out of qubit %d from stale position", si, m.Qubit)
			}
			if !m.To.InStorage {
				return fmt.Errorf("place: step %d move-out of qubit %d not to storage", si, m.Qubit)
			}
			if prev, taken := occ[m.To.Trap]; taken {
				return fmt.Errorf("place: step %d return collides with qubit %d at trap %+v", si, prev, m.To.Trap)
			}
			occ[m.To.Trap] = m.Qubit
			pos[m.Qubit] = m.To
		}
	}
	// After the final step everything must be back in storage.
	for q := range pos {
		if !pos[q].InStorage {
			return fmt.Errorf("place: qubit %d left in the entanglement zone at program end", q)
		}
	}
	return nil
}
