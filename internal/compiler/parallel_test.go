package compiler

import (
	"context"
	"runtime"
	"testing"

	"zac/internal/arch"
)

// TestParallelByteIdentity is the determinism contract of the ISSUE-9
// parallelism: every registry compiler produces byte-identical output
// whether it runs sequentially (Workers=1 on one proc) or with a full
// worker budget on several procs. Workers is a speed-only knob; only
// SARestarts may change the compiled bytes.
func TestParallelByteIdentity(t *testing.T) {
	ambient := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(ambient)
	ctx := context.Background()

	compileHash := func(t *testing.T, name, circ string, procs int, opts Options) string {
		t.Helper()
		c, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(ambient)
		r, err := c.Compile(ctx, stagedFor(t, c, circ), TargetArch(c), opts)
		if err != nil {
			t.Fatalf("%s/%s: %v", name, circ, err)
		}
		return resultHash(t, r)
	}

	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			seq := compileHash(t, name, "qft_n18", 1, Options{Workers: 1})
			par := compileHash(t, name, "qft_n18", 4, Options{Workers: 4})
			if seq != par {
				t.Errorf("Workers=4 on 4 procs changed the output of %s", name)
			}
		})
	}

	// The restart axis: SARestarts changes the plan deterministically —
	// the same value must hash identically at any worker budget, and the
	// default must match the explicit single chain.
	t.Run("zac/sa-restarts", func(t *testing.T) {
		for _, circ := range []string{"qft_n18", "ising_n42"} {
			base := compileHash(t, "zac", circ, 1, Options{Workers: 1})
			if got := compileHash(t, "zac", circ, 1, Options{SARestarts: 1, Workers: 1}); got != base {
				t.Errorf("%s: SARestarts=1 differs from the default single chain", circ)
			}
			r3seq := compileHash(t, "zac", circ, 1, Options{SARestarts: 3, Workers: 1})
			r3par := compileHash(t, "zac", circ, 4, Options{SARestarts: 3, Workers: 4})
			if r3seq != r3par {
				t.Errorf("%s: SARestarts=3 output depends on the worker budget", circ)
			}
		}
	})
}

// TestParallelArchIdentity pins that a forced non-reference architecture is
// equally worker-independent — the triple-trap target drives different
// matching shapes through the reuse/no-reuse race.
func TestParallelArchIdentity(t *testing.T) {
	ctx := context.Background()
	c, err := Get("zac")
	if err != nil {
		t.Fatal(err)
	}
	a := arch.ReferenceTriple()
	staged := stagedFor(t, c, "wstate_n27")
	var hashes []string
	for _, workers := range []int{1, 4} {
		r, err := c.Compile(ctx, staged, a, Options{Workers: workers, SARestarts: 2})
		if err != nil {
			t.Fatal(err)
		}
		hashes = append(hashes, resultHash(t, r))
	}
	if hashes[0] != hashes[1] {
		t.Error("triple-trap compile differs between Workers=1 and Workers=4")
	}
}
