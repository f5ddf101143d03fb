// Command zac-benchsuite is the kernel half of the performance observatory
// CLI: it ingests `go test -bench -benchmem` output, stamps every record
// with the machine fingerprint and commit, appends to the persistent
// JSON-lines store, and answers trend queries, renders markdown/HTML
// reports, and runs the statistical regression gate. Application numbers
// come from perfbench.
//
// Subcommands:
//
//	go test -run xxx -bench JV -benchmem ./internal/matching | zac-benchsuite ingest -commit <sha>
//	zac-benchsuite trend -store .zac-benchstore -case zac/internal/matching.BenchmarkJVDense -last 10
//	zac-benchsuite report -store .zac-benchstore -format html -o report.html
//	zac-benchsuite gate -store .zac-benchstore -baseline <sha> -current latest
//	zac-benchsuite fingerprint
//
// Exit codes: 0 success (gate: no regression), 1 gate regression, 2 error.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"time"

	"zac/internal/benchsuite"
	"zac/internal/benchsuite/stats"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// defaultStore is the store directory used when -store is not given.
const defaultStore = ".zac-benchstore"

// run dispatches the subcommand and returns the process exit code; kept
// separate from main so tests drive the full CLI in-process.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	cmd := ""
	if len(args) > 0 {
		cmd, args = args[0], args[1:]
	}
	switch cmd {
	case "ingest":
		return runIngest(args, stdin, stdout, stderr)
	case "trend":
		return runTrend(args, stdout, stderr)
	case "report":
		return runReport(args, stdout, stderr)
	case "gate":
		return runGate(args, stdout, stderr)
	case "fingerprint":
		fp := benchsuite.Machine()
		fmt.Fprintf(stdout, "%s\n%s\n", fp.ID(), fp.String())
		return 0
	default:
		fmt.Fprintf(stderr, "zac-benchsuite: unknown subcommand %q (have ingest, trend, report, gate, fingerprint)\n", cmd)
		return 2
	}
}

// fail prints an error and returns the error exit code.
func fail(stderr io.Writer, err error) int {
	fmt.Fprintf(stderr, "zac-benchsuite: %v\n", err)
	return 2
}

// gitHead resolves the working tree's commit for record stamping, falling
// back to "unknown" outside a git checkout.
func gitHead() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// splitList splits a comma-separated flag value, dropping empties.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// runIngest appends one record per `go test -bench` result line read from
// stdin to the store.
func runIngest(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ingest", flag.ContinueOnError)
	fs.SetOutput(stderr)
	storeDir := fs.String("store", defaultStore, "results store directory (JSON-lines, one shard per machine fingerprint)")
	commit := fs.String("commit", "", "commit stamped into records (default: git rev-parse HEAD)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *commit == "" {
		*commit = gitHead()
	}
	records, err := benchsuite.Ingest(stdin, *commit, time.Now())
	if err != nil {
		return fail(stderr, err)
	}
	store, err := benchsuite.OpenStore(*storeDir)
	if err != nil {
		return fail(stderr, err)
	}
	if err := store.Append(records); err != nil {
		return fail(stderr, err)
	}
	fmt.Fprintf(stdout, "zac-benchsuite: %d benchmark results appended to %s (machine %s, commit %s)\n",
		len(records), *storeDir, records[0].MachineID, shortSHA(*commit))
	return 0
}

// runTrend prints one case's per-commit trajectory.
func runTrend(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("trend", flag.ContinueOnError)
	fs.SetOutput(stderr)
	storeDir := fs.String("store", defaultStore, "results store directory")
	caseName := fs.String("case", "", "case name, e.g. zac/internal/place.BenchmarkBuildPlan/qft_n18")
	last := fs.Int("last", 10, "number of most recent commits to show (0 = all)")
	machine := fs.String("machine", "", "machine id (default: this machine)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *caseName == "" {
		return fail(stderr, fmt.Errorf("trend: -case is required"))
	}
	store, err := benchsuite.OpenStore(*storeDir)
	if err != nil {
		return fail(stderr, err)
	}
	if *machine == "" {
		*machine = benchsuite.Machine().ID()
	}
	points, err := store.Trend(*machine, *caseName, *last)
	if err != nil {
		return fail(stderr, err)
	}
	if len(points) == 0 {
		return fail(stderr, fmt.Errorf("trend: no records for case %q on machine %s in %s", *caseName, *machine, *storeDir))
	}
	fmt.Fprintf(stdout, "%s on machine %s (last %d commits):\n", *caseName, *machine, len(points))
	for _, p := range points {
		fmt.Fprintf(stdout, "  %-14s n=%-3d median %14.0f ns/op  (min %.0f, max %.0f)\n",
			shortSHA(p.Commit), p.Summary.N, p.Summary.Median, p.Summary.Min, p.Summary.Max)
	}
	return 0
}

// runReport renders the markdown or HTML report.
func runReport(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("report", flag.ContinueOnError)
	fs.SetOutput(stderr)
	storeDir := fs.String("store", defaultStore, "results store directory")
	format := fs.String("format", "md", "report format: md or html")
	out := fs.String("o", "", "output file (default stdout)")
	machine := fs.String("machine", "", "restrict to one machine id (default: all)")
	last := fs.Int("last", 10, "trend depth in commits")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	store, err := benchsuite.OpenStore(*storeDir)
	if err != nil {
		return fail(stderr, err)
	}
	opts := benchsuite.ReportOptions{MachineID: *machine, LastN: *last}
	var body string
	switch *format {
	case "md", "markdown":
		body, err = benchsuite.MarkdownReport(store, opts)
	case "html":
		body, err = benchsuite.HTMLReport(store, opts)
	default:
		err = fmt.Errorf("report: unknown format %q (md, html)", *format)
	}
	if err != nil {
		return fail(stderr, err)
	}
	if *out == "" {
		fmt.Fprint(stdout, body)
		return 0
	}
	if err := os.WriteFile(*out, []byte(body), 0o644); err != nil {
		return fail(stderr, err)
	}
	fmt.Fprintf(stdout, "zac-benchsuite: wrote %s\n", *out)
	return 0
}

// runGate compares two commits' records statistically; exit 1 flags a
// regression.
func runGate(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	storeDir := fs.String("store", defaultStore, "results store directory")
	baseline := fs.String("baseline", "", "baseline commit recorded in the store")
	current := fs.String("current", "latest", "current commit recorded in the store (default: most recent)")
	machine := fs.String("machine", "", "machine id (default: this machine); cross-machine comparison is refused")
	alpha := fs.Float64("alpha", 0.05, "Mann-Whitney significance level")
	minDelta := fs.Float64("min-delta", 3, "practical-significance floor in percent")
	threshold := fs.Float64("threshold", 20, "raw fallback threshold in percent when repetitions are too few")
	cases := fs.String("cases", "", "comma-separated case names to gate (default: every baseline case)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *baseline == "" {
		return fail(stderr, fmt.Errorf("gate: -baseline is required"))
	}
	store, err := benchsuite.OpenStore(*storeDir)
	if err != nil {
		return fail(stderr, err)
	}
	if *machine == "" {
		*machine = benchsuite.Machine().ID()
	}
	verdicts, err := benchsuite.GateCommits(store, *machine, *baseline, *current, benchsuite.GateOptions{
		Alpha: *alpha, MinDeltaPct: *minDelta, ThresholdPct: *threshold, Cases: splitList(*cases),
	})
	if err != nil {
		return fail(stderr, err)
	}
	for _, v := range verdicts {
		state := "ok  "
		if v.Regressed {
			state = "FAIL"
		} else if v.Improved {
			state = "FAST"
		}
		detail := ""
		switch v.Mode {
		case benchsuite.ModeStats:
			detail = fmt.Sprintf("%s  Δmedian %+.1f%%", stats.FormatP(v.P), v.DeltaPct)
		case benchsuite.ModeThreshold:
			detail = fmt.Sprintf("threshold fallback  Δmedian %+.1f%%", v.DeltaPct)
		case benchsuite.ModeSkipped:
			detail = v.Note
		}
		fmt.Fprintf(stdout, "gate: %s %-60s %-9s %s\n", state, v.Case, v.Metric, detail)
	}
	if n := benchsuite.Regressions(verdicts); n > 0 {
		fmt.Fprintf(stdout, "gate: FAILED — %d verdict(s) regressed (baseline %s → current %s)\n", n, shortSHA(*baseline), *current)
		return 1
	}
	fmt.Fprintf(stdout, "gate: ok — %d verdict(s), no statistically significant regression\n", len(verdicts))
	return 0
}

// shortSHA truncates a full hexadecimal commit hash for log lines; any
// other label, such as bench-regress.sh's base-<run>-<sha>, prints whole.
func shortSHA(sha string) string {
	if len(sha) <= 12 || strings.Trim(sha, "0123456789abcdef") != "" {
		return sha
	}
	return sha[:12]
}
