package place_test

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"slices"
	"strings"
	"sync"
	"testing"

	"zac/internal/arch"
	"zac/internal/circuit"
	"zac/internal/core"
	"zac/internal/cover"
	"zac/internal/resynth"
	"zac/internal/workload"
)

// Placement and scheduling take their scratch buffers from free lists that
// outlive a compile. These tests pin that a compile on a recycled scratch
// is byte-identical to one on a fresh scratch, whatever ran on the scratch
// before: another architecture, a cancelled compile, a failed one, or a
// concurrent compile.

// reuseInput is one compile of the reuse tests: a benchmark circuit or a
// forge spec, on an architecture.
type reuseInput struct {
	name string // a benchmark name or a forge spec
	arch func() *arch.Architecture
}

func (in reuseInput) key() string { return in.name + "@" + in.arch().Name }

// staged preprocesses the input, splitting a forge spec to site capacity
// as perfbench's forge-scale does.
func (in reuseInput) staged(t testing.TB) (*arch.Architecture, *circuit.Staged) {
	t.Helper()
	a := in.arch()
	if !strings.Contains(in.name, ":") {
		return a, stagedBench(t, in.name)
	}
	c, err := workload.Build(in.name)
	if err != nil {
		t.Fatal(err)
	}
	staged, err := resynth.Preprocess(c)
	if err != nil {
		t.Fatal(err)
	}
	return a, circuit.SplitRydbergStages(staged, a.TotalSites())
}

var (
	reuseLarge = reuseInput{"qaoa:n=192,p=2,seed=1", arch.Reference}
	reuseSmall = reuseInput{"bv_n14", arch.Arch2TwoZones}
	// reuseAllTraps exhausts return placement's widened candidate boxes.
	reuseAllTraps = reuseInput{"ghz_n78", arch.Arch1Small}
)

// compileDigest compiles in under full ZAC at Workers 2, which overlaps
// scheduling with placement on the forge specs here, and digests the
// program as `zac -out` writes it, with fidelity and duration to the last
// bit.
func compileDigest(ctx context.Context, t testing.TB, in reuseInput) (string, error) {
	a, staged := in.staged(t)
	opts := core.Default()
	opts.Place.Workers = 2
	res, err := core.Standard().Run(ctx, staged, a, opts)
	if err != nil {
		return "", err
	}
	data, err := json.MarshalIndent(res.Program, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	return fmt.Sprintf("%s fid=%.17g dur=%.17g", hex.EncodeToString(sum[:]), res.Breakdown.Total, res.Duration), nil
}

// freshEnv names the input a child process of TestScratchReuseMatchesFresh
// compiles: a new process starts with empty free lists, so its compile
// runs on fresh scratch.
const freshEnv = "ZAC_REUSE_FRESH_INPUT"

// freshDigest compiles in in a child process of this test binary and
// returns the digest it prints.
func freshDigest(t *testing.T, in reuseInput) string {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^TestScratchReuseMatchesFresh$", "-test.count=1")
	cmd.Env = append(os.Environ(), freshEnv+"="+in.key())
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("fresh compile of %s: %v\n%s", in.key(), err, out)
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		if d, ok := strings.CutPrefix(sc.Text(), "fresh-digest "); ok {
			return d
		}
	}
	t.Fatalf("fresh compile of %s printed no digest:\n%s", in.key(), out)
	return ""
}

// TestScratchReuseMatchesFresh compiles, in one process, a large forge spec
// on the reference architecture, a small paper circuit on the two-zone
// architecture, a compile cancelled mid-placement, a compile that fails
// placement, and the large spec again. Every finished compile must equal
// the digest of the same input compiled in a new process, on fresh
// scratch. The cancelled and failed compiles leave their scratch dirty and
// must not hand it on.
func TestScratchReuseMatchesFresh(t *testing.T) {
	if key := os.Getenv(freshEnv); key != "" {
		for _, in := range []reuseInput{reuseLarge, reuseSmall, reuseAllTraps} {
			if in.key() == key {
				d, err := compileDigest(context.Background(), t, in)
				if err != nil {
					t.Fatal(err)
				}
				fmt.Println("fresh-digest " + d)
				return
			}
		}
		t.Fatalf("unknown input %q", key)
	}
	want := map[string]string{}
	for _, in := range []reuseInput{reuseLarge, reuseSmall} {
		want[in.key()] = freshDigest(t, in)
	}
	check := func(step string, in reuseInput) {
		t.Helper()
		got, err := compileDigest(context.Background(), t, in)
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		if got != want[in.key()] {
			t.Fatalf("%s: %s compiled to %s on recycled scratch, %s on fresh scratch", step, in.key(), got, want[in.key()])
		}
	}
	check("first", reuseLarge)
	check("after another architecture", reuseSmall)

	// Cancelled at its 10th context check, inside the placement loop.
	if _, err := compileDigest(newCountdownCtx(10), t, reuseLarge); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled compile: err = %v, want context.Canceled", err)
	}

	// A last Rydberg stage with one gate more than the architecture has
	// sites fails placement after every earlier transition has run.
	a, staged := overlapInput(t)
	over := *staged
	last := circuit.Stage{Kind: circuit.RydbergStage}
	for i := 0; i <= a.TotalSites(); i++ {
		last.Gates = append(last.Gates, circuit.NewGate(circuit.CZ, []int{2 * i, 2*i + 1}))
	}
	over.NumQubits = max(over.NumQubits, 2*len(last.Gates))
	over.Stages = append(slices.Clip(over.Stages), last)
	if _, err := core.Standard().Run(context.Background(), &over, a, overlapOptions(2)); err == nil || !strings.Contains(err.Error(), "cannot place") {
		t.Fatalf("failing compile: err = %v, want a placement error", err)
	}

	check("after a cancelled and a failed compile", reuseLarge)
	check("small again", reuseSmall)
}

// TestScratchReuseConcurrent compiles four inputs on three architectures
// from four goroutines at once, each several times, so scratches pass
// between goroutines, inputs and architectures. Every digest must equal
// the input's sequential one. Run it under -race.
func TestScratchReuseConcurrent(t *testing.T) {
	inputs := []reuseInput{
		{"qaoa:n=128,p=2,seed=1", arch.Reference},
		reuseSmall,
		{"ghz_n23", arch.Arch1Small},
		{"shuffle:n=32,depth=8,seed=2", arch.Reference},
	}
	want := make([]string, len(inputs))
	for i, in := range inputs {
		d, err := compileDigest(context.Background(), t, in)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = d
	}
	const rounds = 3
	var wg sync.WaitGroup
	for g := range inputs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range rounds {
				in := inputs[(g+r)%len(inputs)]
				got, err := compileDigest(context.Background(), t, in)
				if err != nil {
					t.Errorf("goroutine %d round %d: %s: %v", g, r, in.key(), err)
					return
				}
				if got != want[(g+r)%len(inputs)] {
					t.Errorf("goroutine %d round %d: %s compiled to %s, sequentially %s", g, r, in.key(), got, want[(g+r)%len(inputs)])
				}
			}
		}()
	}
	wg.Wait()
}

// TestReturnPlacementAllTrapsFallback compiles ghz_n78 on the small
// one-zone architecture, where return placement exhausts its widened
// candidate boxes and falls back to every free trap. The fallback must
// fire, and the compile, then a second one on the scratch the first
// returned, must equal a compile on fresh scratch: the fallback touches
// the most trap columns, so it is where a stale trap-column entry would
// show.
func TestReturnPlacementAllTrapsFallback(t *testing.T) {
	want := freshDigest(t, reuseAllTraps)
	set := cover.NewSet()
	for i, ctx := range []context.Context{cover.With(context.Background(), set), context.Background()} {
		got, err := compileDigest(ctx, t, reuseAllTraps)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("compile %d: %s, on fresh scratch %s", i+1, got, want)
		}
	}
	if !set.Has("place:returns:all-traps") {
		t.Fatalf("place:returns:all-traps never fired; features: %v", set.Features())
	}
}
