package schedule

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"math/rand"
	"slices"
	"testing"

	"zac/internal/arch"
	"zac/internal/circuit"
	"zac/internal/geom"
	"zac/internal/graphalgo"
	"zac/internal/place"
	"zac/internal/resynth"
	"zac/internal/zair"
)

func compilePlan(t *testing.T, a *arch.Architecture, c *circuit.Circuit, opts place.Options) (*circuit.Staged, *place.Plan) {
	t.Helper()
	staged, err := resynth.Preprocess(c)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := place.BuildPlan(context.Background(), a, staged, opts)
	if err != nil {
		t.Fatal(err)
	}
	return staged, plan
}

func ghz(n int) *circuit.Circuit {
	c := circuit.New("ghz", n)
	c.Append(circuit.H, []int{0})
	for i := 0; i < n-1; i++ {
		c.Append(circuit.CX, []int{i, i + 1})
	}
	return c
}

func pairs(n int) *circuit.Circuit {
	c := circuit.New("pairs", n)
	for i := 0; i+1 < n; i += 2 {
		c.Append(circuit.CZ, []int{i, i + 1})
	}
	for i := 1; i+1 < n; i += 2 {
		c.Append(circuit.CZ, []int{i, i + 1})
	}
	return c
}

// verifyProgram replays the compiled program through the ZAIR verifier with
// the architecture's position resolver — the end-to-end physical check.
func verifyProgram(t *testing.T, a *arch.Architecture, p *zair.Program) {
	t.Helper()
	resolve := func(slmID, row, col int) (geom.Point, error) {
		for _, z := range a.Storage {
			for _, s := range z.SLMs {
				if s.ID == slmID && s.InRange(row, col) {
					return s.TrapPos(row, col), nil
				}
			}
		}
		for _, z := range a.Entanglement {
			for _, s := range z.SLMs {
				if s.ID == slmID && s.InRange(row, col) {
					return s.TrapPos(row, col), nil
				}
			}
		}
		return geom.Point{}, &unknownLoc{slmID, row, col}
	}
	v := &zair.Verifier{Resolve: resolve}
	if err := v.Verify(p); err != nil {
		t.Fatal(err)
	}
}

type unknownLoc struct{ a, r, c int }

func (u *unknownLoc) Error() string {
	return "unknown SLM location"
}

func TestBuildProducesValidProgram(t *testing.T) {
	a := arch.Reference()
	staged, plan := compilePlan(t, a, ghz(14), place.Default())
	res, err := BuildWithOptions(context.Background(), a, staged, plan, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Program.Validate(); err != nil {
		t.Fatal(err)
	}
	verifyProgram(t, a, res.Program)
	if res.Stats.Duration <= 0 {
		t.Error("zero duration")
	}
	_, twoQ := staged.GateCounts()
	if res.Stats.TwoQGates != twoQ {
		t.Errorf("2Q count %d != %d", res.Stats.TwoQGates, twoQ)
	}
	oneQ, _ := staged.GateCounts()
	if res.Stats.OneQGates != oneQ {
		t.Errorf("1Q count %d != %d", res.Stats.OneQGates, oneQ)
	}
	// ZAC keeps idle qubits out of firing zones: no excitation.
	if res.Stats.Excited != 0 {
		t.Errorf("excited = %d, want 0", res.Stats.Excited)
	}
	// Every plan movement costs exactly two transfers.
	if res.Stats.Transfers != 2*plan.TotalMoves() {
		t.Errorf("transfers %d != 2×moves %d", res.Stats.Transfers, 2*plan.TotalMoves())
	}
}

func TestProgramTimesMonotonePerAOD(t *testing.T) {
	a := arch.Reference()
	staged, plan := compilePlan(t, a, pairs(16), place.Default())
	res, err := BuildWithOptions(context.Background(), a, staged, plan, Options{})
	if err != nil {
		t.Fatal(err)
	}
	lastEnd := map[int]float64{}
	for _, in := range res.Program.Instructions {
		if j, ok := in.(zair.RearrangeJob); ok {
			if j.BeginTime < lastEnd[j.AODID]-1e-9 {
				t.Fatalf("AOD %d job overlaps: begin %v < last end %v", j.AODID, j.BeginTime, lastEnd[j.AODID])
			}
			lastEnd[j.AODID] = j.EndTime
		}
	}
}

func TestMultiAODShortensSchedule(t *testing.T) {
	// A wide parallel circuit gains from extra AODs.
	c := pairs(40)
	a1 := arch.Reference()
	a2 := arch.WithAODs(arch.Reference(), 2)
	staged, plan := compilePlan(t, a1, c, place.Default())
	res1, err := BuildWithOptions(context.Background(), a1, staged, plan, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := BuildWithOptions(context.Background(), a2, staged, plan, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stats.Duration > res1.Stats.Duration+1e-9 {
		t.Errorf("2 AODs slower than 1: %v vs %v", res2.Stats.Duration, res1.Stats.Duration)
	}
}

func TestCompatibility(t *testing.T) {
	mk := func(x0, y0, x1, y1 float64) *moveSpec {
		return &moveSpec{from: geom.Point{X: x0, Y: y0}, to: geom.Point{X: x1, Y: y1}}
	}
	// Order preserved in both axes: compatible.
	if !compatible(mk(0, 0, 10, 10), mk(5, 0, 15, 10)) {
		t.Error("order-preserving moves should be compatible")
	}
	// X order flips: incompatible.
	if compatible(mk(0, 0, 20, 10), mk(5, 0, 15, 10)) {
		t.Error("x-crossing moves should conflict")
	}
	// Same begin x must stay same end x.
	if compatible(mk(0, 0, 10, 10), mk(0, 5, 12, 15)) {
		t.Error("same-column moves with diverging ends should conflict")
	}
	if !compatible(mk(0, 0, 10, 10), mk(0, 5, 10, 15)) {
		t.Error("same-column moves staying together should be compatible")
	}
	// Y order flips: incompatible.
	if compatible(mk(0, 0, 10, 20), mk(0, 5, 10, 15)) {
		t.Error("y-crossing moves should conflict")
	}
}

func TestGroupCompatibleCoversAll(t *testing.T) {
	specs := []moveSpec{
		{from: geom.Point{X: 0, Y: 0}, to: geom.Point{X: 10, Y: 10}},
		{from: geom.Point{X: 5, Y: 0}, to: geom.Point{X: 2, Y: 10}},  // crosses 0
		{from: geom.Point{X: 9, Y: 0}, to: geom.Point{X: 20, Y: 10}}, // compatible with 0
	}
	groups := new(scratch).groupCompatible(specs)
	total := 0
	for _, g := range groups {
		total += len(g)
		for i := 0; i < len(g); i++ {
			for j := i + 1; j < len(g); j++ {
				if !compatible(&specs[g[i]], &specs[g[j]]) {
					t.Fatalf("group contains conflicting moves %d,%d", g[i], g[j])
				}
			}
		}
	}
	if total != 3 {
		t.Fatalf("covered %d of 3 moves", total)
	}
	if len(groups) < 2 {
		t.Fatal("crossing moves must land in separate groups/jobs")
	}
}

// TestGroupCompatibleMatchesPairwise checks the conflict bit matrix across
// word boundaries: the upper-triangle scan, with the lower triangle
// mirrored in place, must give the groups of the plain pairwise matrix.
// One scratch serves every size, growing and then shrinking, as one
// schedule's movement phases reuse it.
func TestGroupCompatibleMatchesPairwise(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	sc := new(scratch)
	for _, n := range []int{1, 2, 63, 64, 65, 150, 65, 2} {
		specs := make([]moveSpec, n)
		for i := range specs {
			specs[i].from = geom.Point{X: float64(r.Intn(30)), Y: float64(r.Intn(30))}
			specs[i].to = geom.Point{X: float64(r.Intn(30)), Y: float64(r.Intn(30))}
		}
		words := (n + 63) / 64
		conflict := make([]uint64, n*words)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j && !compatible(&specs[i], &specs[j]) {
					conflict[i*words+j/64] |= 1 << (j % 64)
				}
			}
		}
		want := graphalgo.PartitionIntoIndependentSets(n, conflict)
		if got := sc.groupCompatible(specs); !slices.EqualFunc(got, want, slices.Equal[[]int]) {
			t.Fatalf("n=%d: groups %v, pairwise %v", n, got, want)
		}
	}
}

func TestOneQGatesSequential(t *testing.T) {
	a := arch.Reference()
	c := circuit.New("h3", 3)
	for q := 0; q < 3; q++ {
		c.Append(circuit.H, []int{q})
	}
	staged, plan := compilePlan(t, a, c, place.Default())
	res, err := BuildWithOptions(context.Background(), a, staged, plan, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// 3 sequential 1Q gates at 52µs each.
	if got, want := res.Stats.Duration, 3*52.0; got != want {
		t.Errorf("duration = %v, want %v", got, want)
	}
}

func TestJobTimingIncludesTransfersAndMove(t *testing.T) {
	a := arch.Reference()
	staged, plan := compilePlan(t, a, ghz(4), place.Default())
	res, err := BuildWithOptions(context.Background(), a, staged, plan, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range res.Program.Instructions {
		if j, ok := in.(zair.RearrangeJob); ok {
			dur := j.EndTime - j.BeginTime
			if dur < 2*a.Times.AtomTransfer {
				t.Fatalf("job duration %v below two transfers", dur)
			}
		}
	}
}

func TestVerifierOnAllArchitectures(t *testing.T) {
	cases := map[string]*arch.Architecture{
		"reference": arch.Reference(),
		"arch1":     arch.Arch1Small(),
		"arch2":     arch.Arch2TwoZones(),
		"twoAODs":   arch.WithAODs(arch.Reference(), 2),
	}
	for name, a := range cases {
		t.Run(name, func(t *testing.T) {
			staged, plan := compilePlan(t, a, pairs(24), place.Default())
			res, err := BuildWithOptions(context.Background(), a, staged, plan, Options{})
			if err != nil {
				t.Fatal(err)
			}
			verifyProgram(t, a, res.Program)
			// Every qubit must end in a storage trap.
			rp := zair.NewReplay(res.Program)
			for _, inst := range res.Program.Instructions {
				if job, ok := inst.(zair.RearrangeJob); ok {
					rp.Move(job)
				}
			}
			final := rp.Pos
			storageIDs := map[int]bool{}
			for _, z := range a.Storage {
				for _, s := range z.SLMs {
					storageIDs[s.ID] = true
				}
			}
			for q, l := range final {
				if !storageIDs[l.A] {
					t.Errorf("qubit %d ends outside storage: %+v", q, l)
				}
			}
		})
	}
}

func TestVerifierWithAdvancedReuse(t *testing.T) {
	// Advanced reuse introduces direct site→site moves inside a movement
	// phase; the verifier must confirm no trap or tone conflicts result.
	a := arch.Reference()
	opts := place.Default()
	opts.AdvancedReuse = true
	qft := circuit.New("qftlike", 12)
	for i := 0; i < 12; i++ {
		for j := i + 1; j < 12; j++ {
			qft.Append(circuit.CZ, []int{i, j})
		}
	}
	staged, plan := compilePlan(t, a, qft, opts)
	res, err := BuildWithOptions(context.Background(), a, staged, plan, Options{})
	if err != nil {
		t.Fatal(err)
	}
	verifyProgram(t, a, res.Program)
}

func TestRydbergPerZone(t *testing.T) {
	a := arch.Arch2TwoZones()
	staged, plan := compilePlan(t, a, pairs(30), place.Default())
	res, err := BuildWithOptions(context.Background(), a, staged, plan, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Program.Validate(); err != nil {
		t.Fatal(err)
	}
	verifyProgram(t, a, res.Program)
	// Count Rydberg instructions; with two zones in use there may be more
	// rydberg instructions than Rydberg stages.
	ryd := 0
	for _, in := range res.Program.Instructions {
		if _, ok := in.(zair.Rydberg); ok {
			ryd++
		}
	}
	if ryd < staged.NumRydbergStages() {
		t.Errorf("rydberg instructions %d < stages %d", ryd, staged.NumRydbergStages())
	}
}

// TestMultiZoneProgramDeterministic schedules one random circuit on two
// entanglement zones repeatedly. A step that fires both zones emits one
// rydberg instruction per zone, and their order must not vary between
// runs: every schedule must encode to the same bytes.
func TestMultiZoneProgramDeterministic(t *testing.T) {
	a := arch.Arch2TwoZones()
	r := rand.New(rand.NewSource(30))
	c := circuit.New("rand30", 30)
	for i := 0; i < 90; i++ {
		p := r.Perm(30)
		c.Append(circuit.CZ, p[:2])
	}
	staged, plan := compilePlan(t, a, c, place.Default())
	var want [sha256.Size]byte
	for run := 0; run < 10; run++ {
		res, err := BuildWithOptions(context.Background(), a, staged, plan, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if run == 0 {
			ryd := 0
			for _, in := range res.Program.Instructions {
				if _, ok := in.(zair.Rydberg); ok {
					ryd++
				}
			}
			if ryd == staged.NumRydbergStages() {
				t.Fatal("no step fires both zones; the input does not exercise zone order")
			}
		}
		data, err := json.Marshal(res.Program)
		if err != nil {
			t.Fatal(err)
		}
		if sum := sha256.Sum256(data); run == 0 {
			want = sum
		} else if sum != want {
			t.Fatalf("run %d: program hash %x, run 0 gave %x", run, sum, want)
		}
	}
}
