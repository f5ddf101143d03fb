package main

import (
	"bytes"
	"context"
	"path/filepath"
	"strings"
	"testing"

	"zac/internal/benchsuite"
)

// cli drives the full CLI in-process and returns (exit code, stdout,
// stderr).
func cli(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(context.Background(), args, &out, &errb)
	return code, out.String(), errb.String()
}

// The acceptance path of the observatory: a real smoke run populates the
// store, and trend, report and export read it back. The gate's verdicts
// are asserted on synthetic records with known sample vectors, written to
// the same store beside the real run: a noise-only rerun passes and a
// seeded 2× slowdown fails. Gating two real timing runs would make the
// verdict depend on the machine's load.
func TestSmokeStoreTrendAndGate(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles circuits in -short mode")
	}
	store := filepath.Join(t.TempDir(), "store")

	code, out, errs := cli(t, "run", "-smoke", "-store", store, "-commit", "commitA")
	if code != 0 {
		t.Fatalf("run exit %d\nstdout: %s\nstderr: %s", code, out, errs)
	}
	if !strings.Contains(out, "micro/jv_dense") {
		t.Fatalf("run output lacks cases:\n%s", out)
	}

	// Synthetic commits: commitB is a ±0.3% noise-only rerun of the
	// baseline vector, commitC the same vector slowed 2×.
	kernels := []string{"micro/jv_dense", "micro/jv_sparse"}
	base := []float64{100.2, 99.8, 100.1, 100.4, 99.9, 100.0, 100.3, 99.7, 100.1, 100.2}
	noise := []float64{100.0, 100.3, 99.8, 100.2, 100.1, 99.9, 100.4, 99.8, 100.0, 100.2}
	slow := make([]float64, len(base))
	for i, x := range base {
		slow[i] = 2 * x
	}
	var recs []benchsuite.Record
	for _, c := range kernels {
		recs = append(recs, synthetic("baseline", c, 1, base), synthetic("commitB", c, 2, noise), synthetic("commitC", c, 3, slow))
	}
	s, err := benchsuite.OpenStore(store)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(recs); err != nil {
		t.Fatal(err)
	}

	// Trend spans the real run and a synthetic one.
	code, out, _ = cli(t, "trend", "-store", store, "-case", "micro/jv_dense", "-last", "10")
	if code != 0 {
		t.Fatalf("trend exit %d", code)
	}
	if !strings.Contains(out, "commitA") || !strings.Contains(out, "commitB") {
		t.Fatalf("trend does not span both runs:\n%s", out)
	}

	cases := strings.Join(kernels, ",")
	code, out, _ = cli(t, "gate", "-store", store, "-baseline", "baseline", "-current", "commitB", "-cases", cases)
	if code != 0 {
		t.Fatalf("noise-only gate exit %d, want 0:\n%s", code, out)
	}
	code, out, _ = cli(t, "gate", "-store", store, "-baseline", "baseline", "-current", "commitC", "-cases", cases)
	if code != 1 {
		t.Fatalf("seeded 2× gate exit %d, want 1:\n%s", code, out)
	}
	if strings.Count(out, "FAIL") < len(kernels) {
		t.Fatalf("seeded 2× gate output lacks a FAIL line per case:\n%s", out)
	}

	// Reports and the BENCH_N.json export render from the real run.
	if code, out, _ = cli(t, "report", "-store", store); code != 0 || !strings.Contains(out, "micro/jv_dense") {
		t.Fatalf("report exit %d:\n%s", code, out)
	}
	if code, out, _ = cli(t, "report", "-store", store, "-format", "html"); code != 0 || !strings.Contains(out, "<table>") {
		t.Fatalf("html report exit %d:\n%s", code, out)
	}
	if code, out, _ = cli(t, "export", "-store", store, "-commit", "commitA"); code != 0 || !strings.Contains(out, "BenchmarkJVDense") {
		t.Fatalf("export exit %d:\n%s", code, out)
	}
}

// synthetic returns a micro-kernel record of this machine with the given
// ns/op samples.
func synthetic(commit, name string, unix int64, samples []float64) benchsuite.Record {
	m := benchsuite.Machine()
	return benchsuite.Record{
		Schema: benchsuite.SchemaVersion, Case: name, Kind: benchsuite.KindMicro,
		Commit: commit, UnixTime: unix, Machine: m, MachineID: m.ID(),
		Warmup: 1, InnerIters: 1, NsPerOp: samples,
	}
}

// Errors and misuse exit 2, distinct from the gate's regression exit 1.
func TestCLIErrorExitCodes(t *testing.T) {
	if code, _, _ := cli(t, "frobnicate"); code != 2 {
		t.Errorf("unknown subcommand exit = %d, want 2", code)
	}
	if code, _, _ := cli(t, "gate", "-store", t.TempDir()); code != 2 {
		t.Errorf("gate without -baseline exit = %d, want 2", code)
	}
	if code, _, _ := cli(t, "gate", "-store", t.TempDir(), "-baseline", "nope"); code != 2 {
		t.Errorf("gate with empty store exit = %d, want 2", code)
	}
	if code, _, _ := cli(t, "trend", "-store", t.TempDir(), "-case", "nope"); code != 2 {
		t.Errorf("trend with empty store exit = %d, want 2", code)
	}
}

func TestFingerprintSubcommand(t *testing.T) {
	code, out, _ := cli(t, "fingerprint")
	if code != 0 {
		t.Fatalf("fingerprint exit %d", code)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 || len(lines[0]) != 16 {
		t.Fatalf("fingerprint output = %q", out)
	}
}
