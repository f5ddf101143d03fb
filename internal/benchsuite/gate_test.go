package benchsuite

import (
	"errors"
	"strings"
	"testing"
	"time"
)

// baseSamples is a realistic steady-state ns/op sample (≈100ns ±0.5%).
var baseSamples = []float64{100.2, 99.8, 100.1, 100.4, 99.9, 100.0, 100.3, 99.7, 100.1, 100.2}

// scaled returns xs multiplied by f.
func scaled(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

// A seeded 2× slowdown must be flagged by the statistical gate, and a
// noise-only delta on the same machine must pass — the acceptance pair of
// the observatory.
func TestGateSeededRegressionVsNoise(t *testing.T) {
	old := []Record{rec("m1", "base", "micro/jv_dense", 1, baseSamples...)}

	slow := []Record{rec("m1", "cur", "micro/jv_dense", 2, scaled(baseSamples, 2)...)}
	verdicts, err := Gate(old, slow, GateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(verdicts) != 1 {
		t.Fatalf("verdicts = %+v", verdicts)
	}
	v := verdicts[0]
	if v.Mode != ModeStats {
		t.Fatalf("mode = %s, want stats (n=10 per side)", v.Mode)
	}
	if !v.Regressed || Regressions(verdicts) != 1 {
		t.Errorf("2× slowdown not flagged: %+v", v)
	}
	if v.P >= 0.05 {
		t.Errorf("2× slowdown p = %v, want < 0.05", v.P)
	}
	if v.DeltaPct < 90 || v.DeltaPct > 110 {
		t.Errorf("DeltaPct = %.1f, want ≈ +100", v.DeltaPct)
	}

	// Noise-only rerun: identical distribution up to ±0.3%.
	noise := []Record{rec("m1", "cur", "micro/jv_dense", 2,
		100.0, 100.3, 99.8, 100.2, 100.1, 99.9, 100.4, 99.8, 100.0, 100.2)}
	verdicts, err = Gate(old, noise, GateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if Regressions(verdicts) != 0 {
		t.Errorf("noise-only delta flagged: %+v", verdicts[0])
	}
}

// With fewer repetitions than the statistical test accepts, the gate falls
// back to the raw percentage threshold.
func TestGateThresholdFallback(t *testing.T) {
	old := []Record{rec("m1", "base", "micro/jv_dense", 1, 100, 101, 99)}
	slow := []Record{rec("m1", "cur", "micro/jv_dense", 2, 200, 202, 199)}
	verdicts, err := Gate(old, slow, GateOptions{ThresholdPct: 20})
	if err != nil {
		t.Fatal(err)
	}
	v := verdicts[0]
	if v.Mode != ModeThreshold {
		t.Fatalf("mode = %s, want threshold (n=3 per side)", v.Mode)
	}
	if !v.Regressed {
		t.Errorf("2× slowdown not flagged by threshold fallback: %+v", v)
	}
	// Within threshold: passes.
	ok := []Record{rec("m1", "cur", "micro/jv_dense", 2, 105, 106, 104)}
	verdicts, err = Gate(old, ok, GateOptions{ThresholdPct: 20})
	if err != nil {
		t.Fatal(err)
	}
	if verdicts[0].Regressed {
		t.Errorf("+5%% flagged by 20%% threshold: %+v", verdicts[0])
	}
}

// A statistically significant but tiny delta stays below the
// practical-significance floor and must not alarm.
func TestGateMinDeltaFloor(t *testing.T) {
	old := []Record{rec("m1", "base", "micro/jv_dense", 1, baseSamples...)}
	// +1% shift: cleanly significant (disjoint distributions) but trivial.
	cur := []Record{rec("m1", "cur", "micro/jv_dense", 2, scaled(baseSamples, 1.01)...)}
	verdicts, err := Gate(old, cur, GateOptions{MinDeltaPct: 3})
	if err != nil {
		t.Fatal(err)
	}
	v := verdicts[0]
	if v.Mode != ModeStats || v.Regressed {
		t.Errorf("+1%% delta flagged despite 3%% floor: %+v", v)
	}
}

// Records measured on different machines must never be compared.
func TestGateRefusesFingerprintMismatch(t *testing.T) {
	old := []Record{rec("m1", "base", "micro/jv_dense", 1, baseSamples...)}
	cur := []Record{rec("m2", "cur", "micro/jv_dense", 2, baseSamples...)}
	if _, err := Gate(old, cur, GateOptions{}); !errors.Is(err, ErrFingerprintMismatch) {
		t.Fatalf("cross-machine gate: err = %v, want ErrFingerprintMismatch", err)
	}
	// Mixed fingerprints inside one side are refused too.
	mixed := []Record{old[0], rec("m2", "base", "micro/jv_sparse", 1, baseSamples...)}
	if _, err := Gate(mixed, nil, GateOptions{}); !errors.Is(err, ErrFingerprintMismatch) {
		t.Fatalf("mixed baseline: err = %v, want ErrFingerprintMismatch", err)
	}
}

// A case that disappeared from the current run is flagged; a case new in
// the current run is reported as skipped without failing the gate; the case
// present on both sides is still compared.
func TestGateMissingCase(t *testing.T) {
	old := []Record{
		rec("m1", "base", "micro/jv_dense", 1, baseSamples...),
		rec("m1", "base", "micro/sa_initial", 1, baseSamples...),
	}
	cur := []Record{
		rec("m1", "cur", "micro/sa_initial", 2, baseSamples...),
		rec("m1", "cur", "micro/zz_new", 2, baseSamples...),
	}
	verdicts, err := Gate(old, cur, GateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(verdicts) != 3 {
		t.Fatalf("verdicts = %+v, want one per case", verdicts)
	}
	if added := verdicts[2]; added.Case != "micro/zz_new" || added.Mode != ModeSkipped || added.Regressed || !strings.Contains(added.Note, "missing in baseline") {
		t.Errorf("new case verdict = %+v", added)
	}
	if n := Regressions(verdicts); n != 1 {
		t.Errorf("Regressions = %d, want 1 (only the missing case)", n)
	}
	missing, kept := verdicts[0], verdicts[1]
	if missing.Case != "micro/jv_dense" || missing.Mode != ModeSkipped || !missing.Regressed || !strings.Contains(missing.Note, "missing") {
		t.Errorf("missing case verdict = %+v", missing)
	}
	if kept.Case != "micro/sa_initial" || kept.Mode != ModeStats || kept.Regressed {
		t.Errorf("present case verdict = %+v", kept)
	}
}

// A GOMAXPROCS change between the two sides is skipped — even a 2×
// "slowdown" is not comparable across core counts — while legacy records
// without the field (Procs 0) stay comparable.
func TestGateProcsChange(t *testing.T) {
	old := []Record{rec("m1", "base", "micro/buildplan_sched/qft_n18/gmp8", 1, baseSamples...)}
	old[0].Procs = 8
	cur := rec("m1", "cur", "micro/buildplan_sched/qft_n18/gmp8", 2, scaled(baseSamples, 2)...)
	cur.Procs = 1
	verdicts, err := Gate(old, []Record{cur}, GateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(verdicts) != 1 || verdicts[0].Mode != ModeSkipped || verdicts[0].Regressed {
		t.Fatalf("procs-change verdict = %+v (must skip, not compare)", verdicts)
	}
	if !strings.Contains(verdicts[0].Note, "gomaxprocs") {
		t.Errorf("procs-change note = %q", verdicts[0].Note)
	}

	// Baseline predating the field: comparable, and the 2× shows up.
	legacy := []Record{rec("m1", "base", "micro/buildplan_sched/qft_n18/gmp8", 1, baseSamples...)}
	verdicts, err = Gate(legacy, []Record{cur}, GateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(verdicts) != 1 || verdicts[0].Mode != ModeStats || !verdicts[0].Regressed {
		t.Fatalf("legacy-baseline verdict = %+v (must compare)", verdicts)
	}
}

// `go test -cpu 1,2` output ingests as records of one case at Procs 1 and
// 2. The gate skips such a case instead of pooling samples taken at two
// proc counts, whichever side holds them.
func TestGateMixedProcs(t *testing.T) {
	const mixed = "pkg: zac/internal/matching\n" +
		"BenchmarkJVDense   \t    1000\t    400000 ns/op\t       0 B/op\t       0 allocs/op\n" +
		"BenchmarkJVDense-2 \t    1000\t    230000 ns/op\t       0 B/op\t       0 allocs/op\n"
	base, err := Ingest(strings.NewReader(mixed), "base", time.Unix(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	cur, err := Ingest(strings.NewReader(mixed), "cur", time.Unix(2, 0))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		old      []Record
		wantNote string
	}{
		{"both sides mixed", base, "baseline pools samples at gomaxprocs 1 and 2"},
		{"current side mixed", base[:1], "current run pools samples at gomaxprocs 1 and 2"},
	} {
		verdicts, err := Gate(tc.old, cur, GateOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(verdicts) != 1 || verdicts[0].Mode != ModeSkipped || verdicts[0].Regressed {
			t.Fatalf("%s: verdicts = %+v (must skip, not compare)", tc.name, verdicts)
		}
		if !strings.Contains(verdicts[0].Note, tc.wantNote) {
			t.Errorf("%s: note = %q, want %q", tc.name, verdicts[0].Note, tc.wantNote)
		}
	}
}

// withAlloc returns r with B/op and allocs/op samples beside its ns/op ones.
func withAlloc(r Record, b, allocs []float64) Record {
	r.BPerOp, r.AllocsPerOp = b, allocs
	return r
}

// The gate judges B/op and allocs/op beside ns/op: doubled bytes and a
// kernel that starts allocating are flagged at unchanged speed, and byte
// noise passes.
func TestGateAllocationMetrics(t *testing.T) {
	bytes := []float64{2048, 2050, 2047, 2049, 2048, 2051, 2046, 2048, 2050, 2049}
	noise := []float64{2049, 2047, 2050, 2048, 2051, 2048, 2047, 2049, 2046, 2050}
	zeros := make([]float64, len(bytes))
	ones := []float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1}
	old := []Record{withAlloc(rec("m1", "base", "micro/jv_dense", 1, baseSamples...), bytes, zeros)}
	for _, tc := range []struct {
		name, want string // want is the one metric to flag, "" for none
		b, allocs  []float64
	}{
		{"B/op doubled", "B/op", scaled(bytes, 2), zeros},
		{"allocs 0 → 1", "allocs/op", bytes, ones},
		{"B/op noise", "", noise, zeros},
	} {
		cur := []Record{withAlloc(rec("m1", "cur", "micro/jv_dense", 2, baseSamples...), tc.b, tc.allocs)}
		verdicts, err := Gate(old, cur, GateOptions{})
		if err != nil {
			t.Fatal(err)
		}
		var metrics []string
		for _, v := range verdicts {
			metrics = append(metrics, v.Metric)
			if v.Regressed != (v.Metric == tc.want) {
				t.Errorf("%s: %s verdict = %+v, want flagged only for %q", tc.name, v.Metric, v, tc.want)
			}
		}
		if strings.Join(metrics, ",") != "ns/op,B/op,allocs/op" {
			t.Errorf("%s: verdict metrics = %v, want ns/op,B/op,allocs/op", tc.name, metrics)
		}
	}

	// At five runs a side, allocating in three of them is not significant,
	// yet growth from a zero median is still flagged.
	old = []Record{withAlloc(rec("m1", "base", "micro/jv_dense", 1, baseSamples[:5]...), bytes[:5], zeros[:5])}
	cur := []Record{withAlloc(rec("m1", "cur", "micro/jv_dense", 2, baseSamples[:5]...), bytes[:5], []float64{0, 0, 1, 1, 1})}
	verdicts, err := Gate(old, cur, GateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if v := verdicts[2]; v.Metric != "allocs/op" || v.Mode != ModeStats || v.P < 0.05 || !v.Regressed {
		t.Errorf("allocs 0 → 1 in 3 of 5 runs: verdict = %+v, want flagged at p ≥ 0.05", v)
	}
}

// The Cases filter restricts the gate to named cells.
func TestGateCaseFilter(t *testing.T) {
	old := []Record{
		rec("m1", "base", "micro/jv_dense", 1, baseSamples...),
		rec("m1", "base", "micro/sa_initial", 1, baseSamples...),
	}
	cur := []Record{
		rec("m1", "cur", "micro/jv_dense", 2, baseSamples...),
		rec("m1", "cur", "micro/sa_initial", 2, scaled(baseSamples, 2)...),
	}
	verdicts, err := Gate(old, cur, GateOptions{Cases: []string{"micro/jv_dense"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(verdicts) != 1 || verdicts[0].Case != "micro/jv_dense" {
		t.Fatalf("filtered verdicts = %+v, want only micro/jv_dense", verdicts)
	}
	if Regressions(verdicts) != 0 {
		t.Errorf("filtered-out regression still flagged: %+v", verdicts)
	}
}

// GateCommits wires the gate to the store, including the "latest" alias.
func TestGateCommits(t *testing.T) {
	s, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append([]Record{
		rec("m1", "base", "micro/jv_dense", 1, baseSamples...),
		rec("m1", "cur", "micro/jv_dense", 2, scaled(baseSamples, 2)...),
	}); err != nil {
		t.Fatal(err)
	}
	verdicts, err := GateCommits(s, "m1", "base", "latest", GateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if Regressions(verdicts) != 1 {
		t.Errorf("GateCommits(base→latest) = %+v, want 1 regression", verdicts)
	}
	if _, err := GateCommits(s, "m1", "nope", "latest", GateOptions{}); err == nil {
		t.Error("GateCommits with unknown baseline commit: want error")
	}
}
