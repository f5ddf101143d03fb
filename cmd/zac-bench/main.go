// Command zac-bench regenerates the paper's tables and figures as text
// tables (and optionally CSV). Each experiment id matches DESIGN.md's
// per-experiment index. Compilations fan out over a bounded worker pool and
// are memoized in a process-wide, in-memory cache, so experiments sharing
// circuits (fig8/fig9/fig10/table2) compile each (circuit, compiler) pair
// once. Nothing persists between runs: the whole suite recompiles in about
// a second.
//
// With -cpuprofile/-memprofile the run writes pprof profiles of the whole
// experiment sweep, the easiest way to profile the compiler's hot path over
// realistic workloads (see DESIGN.md, "Performance").
//
// With -compiler the run sweeps the named compiler-registry entries (ZAC
// presets, baselines, SC routers) over the circuit subset instead of
// reproducing a paper experiment.
//
// With -workload the run sweeps workload-forge specs (';'-separated — specs
// contain commas; see -list-workloads for families and schemas) through the
// neutral-atom compilers, the generated counterpart of -experiment
// workloads. Workload specs are also accepted inside -circuits wherever a
// benchmark name is (commas permitting, i.e. single-parameter specs).
//
//	zac-bench -experiment fig8
//	zac-bench -experiment fig9 -circuits bv_n14,ghz_n23
//	zac-bench -compiler zac,enola,nalac -circuits bv_n14,ghz_n23
//	zac-bench -workload 'rb:n=32,depth=20,seed=7;shuffle:n=40,depth=12,seed=3'
//	zac-bench -experiment all -csv out/
//	zac-bench -experiment all -parallel 8 -progress
//	zac-bench -experiment fig12 -nocache -cpuprofile cpu.pprof -memprofile mem.pprof
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"

	"zac/internal/experiments"
	"zac/internal/workload"
)

func main() {
	os.Exit(run())
}

// run holds the whole CLI body and reports the exit code; keeping it out of
// main means the deferred CPU/heap profile writers flush even on failed or
// interrupted runs, when a partial profile is most useful.
func run() int {
	exp := flag.String("experiment", "all", "experiment id (see -list) or 'all'")
	list := flag.Bool("list", false, "list experiment ids and exit")
	listWorkloads := flag.Bool("list-workloads", false, "list workload generator families with parameter schemas and exit")
	compilers := flag.String("compiler", "", "comma-separated registry compilers to sweep instead of an experiment (e.g. zac,enola,nalac)")
	workloads := flag.String("workload", "", "';'-separated workload specs to sweep instead of an experiment (e.g. 'rb:n=32,depth=20,seed=7;shuffle:n=40')")
	circuits := flag.String("circuits", "", "comma-separated benchmark subset (default: full suite)")
	csvDir := flag.String("csv", "", "also write CSV files into this directory")
	parallel := flag.Int("parallel", 0, "worker pool size (0 = all CPUs, 1 = sequential)")
	progress := flag.Bool("progress", false, "print one line per completed compilation to stderr")
	noCache := flag.Bool("nocache", false, "disable the compilation cache (recompile shared circuits)")
	saRestarts := flag.Int("sa-restarts", 1, "independent SA initial-placement chains per ZAC compilation, best kept (≥ 1)")
	workers := flag.Int("workers", 0, "intra-compile parallelism budget per compilation (0 = all cores)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
	memProfile := flag.String("memprofile", "", "write an end-of-run heap profile to this file (go tool pprof)")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "zac-bench: -cpuprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "zac-bench: -cpuprofile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	defer func() {
		if *memProfile == "" {
			return
		}
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "zac-bench: -memprofile: %v\n", err)
			return
		}
		defer f.Close()
		runtime.GC() // materialize up-to-date allocation statistics
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "zac-bench: -memprofile: %v\n", err)
		}
	}()

	if *list {
		for _, n := range experiments.Registry() {
			fmt.Println(n)
		}
		return 0
	}
	if *listWorkloads {
		fmt.Print(workload.List())
		return 0
	}

	var subset []string
	if *circuits != "" {
		subset = strings.Split(*circuits, ",")
	}

	ids := []string{*exp}
	if *exp == "all" {
		ids = experiments.Registry()
	}

	if *saRestarts < 1 {
		fmt.Fprintf(os.Stderr, "zac-bench: -sa-restarts must be >= 1, got %d\n", *saRestarts)
		return 1
	}
	if *workers < 0 {
		fmt.Fprintf(os.Stderr, "zac-bench: -workers must be >= 0 (0 = all cores), got %d\n", *workers)
		return 1
	}

	cfg := experiments.Config{Parallel: *parallel, NoCache: *noCache, SARestarts: *saRestarts, Workers: *workers}
	if *progress {
		cfg.Progress = func(msg string) { fmt.Fprintln(os.Stderr, "[progress] "+msg) }
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	emit := func(id string, tables []*experiments.Table) error {
		for i, t := range tables {
			fmt.Println(t.Render())
			if *csvDir != "" {
				if err := os.MkdirAll(*csvDir, 0o755); err != nil {
					return err
				}
				name := fmt.Sprintf("%s_%d.csv", id, i)
				if err := os.WriteFile(filepath.Join(*csvDir, name), []byte(t.CSV()), 0o644); err != nil {
					return err
				}
			}
		}
		return nil
	}

	if *workloads != "" {
		// Forge sweep: compile the ';'-separated specs through the
		// neutral-atom compilers via the forge experiment. As with
		// -compiler, an explicit -experiment (or a -circuits subset, which
		// the forge sweep would never read) would be silently ignored.
		if *exp != "all" || *compilers != "" || *circuits != "" {
			fmt.Fprintln(os.Stderr, "zac-bench: -workload is mutually exclusive with -experiment, -compiler, and -circuits (the forge sweep replaces them)")
			return 1
		}
		// Validate every spec up front: the forge experiment skips non-spec
		// subset entries (so `-experiment all -circuits …` keeps working),
		// which would silently turn a typo like `rbx:n=32` into an empty
		// sweep with exit 0 at this dedicated entry point.
		var specs []string
		for _, s := range strings.Split(*workloads, ";") {
			if s = strings.TrimSpace(s); s == "" {
				continue
			}
			if _, err := workload.Parse(s); err != nil {
				fmt.Fprintf(os.Stderr, "zac-bench: -workload: %v\n", err)
				return 1
			}
			specs = append(specs, s)
		}
		tables, err := experiments.RunWith(ctx, cfg, "forge", specs)
		if err != nil {
			fmt.Fprintf(os.Stderr, "zac-bench: -workload: %v\n", err)
			return 1
		}
		if err := emit("forge", tables); err != nil {
			fmt.Fprintf(os.Stderr, "zac-bench: %v\n", err)
			return 1
		}
		ids = nil
	}

	if *compilers != "" {
		// Registry sweep: compile the subset through the named compilers
		// instead of reproducing a paper experiment. An explicit
		// -experiment alongside it would be silently ignored, so reject
		// the combination outright.
		if *exp != "all" {
			fmt.Fprintln(os.Stderr, "zac-bench: -compiler and -experiment are mutually exclusive (the sweep replaces the experiment run)")
			return 1
		}
		tables, err := experiments.CompilerSweep(ctx, cfg, subset, strings.Split(*compilers, ","))
		if err != nil {
			fmt.Fprintf(os.Stderr, "zac-bench: -compiler: %v\n", err)
			return 1
		}
		if err := emit("compilers", tables); err != nil {
			fmt.Fprintf(os.Stderr, "zac-bench: %v\n", err)
			return 1
		}
		ids = nil
	}

	for _, id := range ids {
		tables, err := experiments.RunWith(ctx, cfg, id, subset)
		if err != nil {
			fmt.Fprintf(os.Stderr, "zac-bench: %s: %v\n", id, err)
			return 1
		}
		if err := emit(id, tables); err != nil {
			fmt.Fprintf(os.Stderr, "zac-bench: %v\n", err)
			return 1
		}
	}
	if *progress {
		st := experiments.CacheStats()
		fmt.Fprintf(os.Stderr, "[cache] %d lookups: %d memory hits, %d misses (%.1f%% hit rate)\n",
			st.Lookups(), st.MemHits, st.Misses, 100*st.HitRate())
	}
	fmt.Println("[INFO] Finish Compilation")
	return 0
}
