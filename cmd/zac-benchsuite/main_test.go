package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
)

// cli drives the full CLI in-process with empty stdin and returns (exit
// code, stdout, stderr).
func cli(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	return cliIn(t, "", args...)
}

// cliIn is cli with the given stdin.
func cliIn(t *testing.T, stdin string, args ...string) (int, string, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, strings.NewReader(stdin), &out, &errb)
	return code, out.String(), errb.String()
}

// benchOutput renders `go test -bench -benchmem -count N` text for the two
// JV kernels, one result line per sample, each ns/op scaled by scale.
func benchOutput(samples []float64, scale float64) string {
	var b strings.Builder
	b.WriteString("goos: linux\ngoarch: amd64\npkg: zac/internal/matching\n")
	for _, name := range []string{"BenchmarkJVDense-2", "BenchmarkJVSparse-2"} {
		for _, ns := range samples {
			fmt.Fprintf(&b, "%s \t    1000\t %12.1f ns/op\t       0 B/op\t       0 allocs/op\n", name, ns*scale)
		}
	}
	b.WriteString("PASS\nok  \tzac/internal/matching\t2.5s\n")
	return b.String()
}

// The acceptance path of the observatory: go-test transcripts are
// ingested into a store, and trend, gate and report read them back. The
// gate's verdicts are asserted on canned transcripts with known samples: a
// noise-only rerun passes and the same rerun with ns/op doubled fails.
// Gating two real timing runs would make the verdict depend on the
// machine's load.
func TestSmokeStoreTrendAndGate(t *testing.T) {
	store := filepath.Join(t.TempDir(), "store")

	// commitB is a ±0.3% noise-only rerun of the baseline samples, commitC
	// the same rerun with ns/op doubled.
	base := []float64{100.2, 99.8, 100.1, 100.4, 99.9, 100.0, 100.3, 99.7, 100.1, 100.2}
	noise := []float64{100.0, 100.3, 99.8, 100.2, 100.1, 99.9, 100.4, 99.8, 100.0, 100.2}
	for _, in := range []struct {
		commit, text string
	}{
		{"baseline", benchOutput(base, 1)},
		{"commitB", benchOutput(noise, 1)},
		{"commitC", benchOutput(noise, 2)},
	} {
		code, out, errs := cliIn(t, in.text, "ingest", "-store", store, "-commit", in.commit)
		if code != 0 || !strings.Contains(out, "20 benchmark results") {
			t.Fatalf("ingest %s exit %d\nstdout: %s\nstderr: %s", in.commit, code, out, errs)
		}
	}

	// Trend spans the ingested commits, each -count repeat one sample.
	code, out, _ := cli(t, "trend", "-store", store, "-case", "zac/internal/matching.BenchmarkJVDense", "-last", "10")
	if code != 0 {
		t.Fatalf("trend exit %d", code)
	}
	if !strings.Contains(out, "baseline") || !strings.Contains(out, "commitB") || !strings.Contains(out, "n=10") {
		t.Fatalf("trend does not span the ingested runs:\n%s", out)
	}

	code, out, _ = cli(t, "gate", "-store", store, "-baseline", "baseline", "-current", "commitB")
	if code != 0 {
		t.Fatalf("noise-only gate exit %d, want 0:\n%s", code, out)
	}
	code, out, _ = cli(t, "gate", "-store", store, "-baseline", "baseline", "-current", "commitC")
	if code != 1 {
		t.Fatalf("doubled ns/op gate exit %d, want 1:\n%s", code, out)
	}
	if strings.Count(out, "gate: FAIL ") < 2 {
		t.Fatalf("doubled ns/op gate output lacks a FAIL line per case:\n%s", out)
	}

	// Reports render the ingested kernels.
	if code, out, _ = cli(t, "report", "-store", store); code != 0 || !strings.Contains(out, "BenchmarkJVSparse") {
		t.Fatalf("report exit %d:\n%s", code, out)
	}
	if code, out, _ = cli(t, "report", "-store", store, "-format", "html"); code != 0 || !strings.Contains(out, "<table>") {
		t.Fatalf("html report exit %d:\n%s", code, out)
	}
}

// Errors and misuse exit 2, distinct from the gate's regression exit 1.
func TestCLIErrorExitCodes(t *testing.T) {
	for _, args := range [][]string{{"frobnicate"}, {"run", "-smoke"}, {"-store", t.TempDir()}, nil} {
		if code, _, _ := cli(t, args...); code != 2 {
			t.Errorf("%q: unknown subcommand exit = %d, want 2", args, code)
		}
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
	for name, in := range map[string]string{
		"an empty transcript":  "",
		"a benchmark-less one": "pkg: zac/internal/matching\nPASS\nok  \tzac/internal/matching\t0.1s\n",
		"a malformed number":   "pkg: zac/internal/matching\nBenchmarkJVDense-2 \t 100\t 4.1.0 ns/op\n",
		"a FAIL line":          "pkg: zac/internal/matching\nBenchmarkJVDense-2 \t 100\t 410 ns/op\nFAIL\tzac/internal/matching\t0.1s\n",
	} {
		store := t.TempDir()
		if code, _, _ := cliIn(t, in, "ingest", "-store", store, "-commit", "c"); code != 2 {
			t.Errorf("ingest of %s exit = %d, want 2", name, code)
		}
		if code, _, _ := cli(t, "gate", "-store", store, "-baseline", "c", "-current", "c"); code != 2 {
			t.Errorf("ingest of %s left records behind", name)
		}
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
