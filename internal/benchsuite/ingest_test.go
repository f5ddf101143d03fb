package benchsuite

import (
	"strings"
	"testing"
	"time"
)

// transcript is `go test -bench -benchmem -count 2` output over two
// packages: a sub-benchmark tree, repeats, a GOMAXPROCS-1 line without the
// "-P" suffix, and a b.ReportMetric column.
const transcript = `goos: linux
goarch: amd64
pkg: zac/internal/matching
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkJVDense-2        	    1234	    410123 ns/op	       0 B/op	       0 allocs/op
BenchmarkJVDense-2        	    1250	    405000.5 ns/op	       0 B/op	       0 allocs/op
BenchmarkJVSparse         	   80000	     14600 ns/op	      16 B/op	       1 allocs/op
PASS
ok  	zac/internal/matching	3.214s
goos: linux
goarch: amd64
pkg: zac/internal/place
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkBuildPlan/qft_n18-8         	     200	   6000000 ns/op	        37.00 moves/op	  900000 B/op	    8500 allocs/op
PASS
ok  	zac/internal/place	2.001s
`

func TestIngestTranscript(t *testing.T) {
	now := time.Unix(777, 0)
	records, err := Ingest(strings.NewReader(transcript), "c0ffee", now)
	if err != nil {
		t.Fatal(err)
	}
	type want struct {
		name      string
		procs, n  int
		ns, b, al float64
	}
	wants := []want{
		{"zac/internal/matching.BenchmarkJVDense", 2, 1234, 410123, 0, 0},
		{"zac/internal/matching.BenchmarkJVDense", 2, 1250, 405000.5, 0, 0},
		{"zac/internal/matching.BenchmarkJVSparse", 1, 80000, 14600, 16, 1},
		{"zac/internal/place.BenchmarkBuildPlan/qft_n18", 8, 200, 6e6, 900000, 8500},
	}
	if len(records) != len(wants) {
		t.Fatalf("got %d records, want %d: %+v", len(records), len(wants), records)
	}
	fp := Machine()
	for i, w := range wants {
		r := records[i]
		if r.Case != w.name || r.Procs != w.procs || r.InnerIters != w.n {
			t.Errorf("record %d = %s procs %d n %d, want %s procs %d n %d", i, r.Case, r.Procs, r.InnerIters, w.name, w.procs, w.n)
		}
		if len(r.NsPerOp) != 1 || r.NsPerOp[0] != w.ns ||
			len(r.BPerOp) != 1 || r.BPerOp[0] != w.b ||
			len(r.AllocsPerOp) != 1 || r.AllocsPerOp[0] != w.al {
			t.Errorf("%s: samples %v / %v / %v, want %v / %v / %v", r.Case, r.NsPerOp, r.BPerOp, r.AllocsPerOp, w.ns, w.b, w.al)
		}
		if r.Schema != SchemaVersion || r.Commit != "c0ffee" || r.UnixTime != 777 {
			t.Errorf("%s: stamp = schema %d %s@%d", r.Case, r.Schema, r.Commit, r.UnixTime)
		}
		if r.Machine != fp || r.MachineID != fp.ID() {
			t.Errorf("%s: fingerprint not stamped", r.Case)
		}
	}

	// The -count repeats merge into one trend point of two samples.
	s, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(records); err != nil {
		t.Fatal(err)
	}
	trend, err := s.Trend(fp.ID(), "zac/internal/matching.BenchmarkJVDense", 0)
	if err != nil || len(trend) != 1 || trend[0].Summary.N != 2 {
		t.Fatalf("trend of the repeats = %+v, %v; want one point of 2 samples", trend, err)
	}
}

func TestIngestRefusals(t *testing.T) {
	for name, in := range map[string]string{
		"empty":           "",
		"no results":      "goos: linux\npkg: zac/internal/matching\nPASS\nok  \tzac/internal/matching\t0.1s\n",
		"bad ns":          "pkg: p\nBenchmarkX-2 \t 100\t 12.x4 ns/op\n",
		"bad count":       "pkg: p\nBenchmarkX-2 \t 1e3\t 12 ns/op\n",
		"dangling value":  "pkg: p\nBenchmarkX-2 \t 100\t 12 ns/op\t 3\n",
		"no ns/op":        "pkg: p\nBenchmarkX-2 \t 100\t 12 B/op\n",
		"no pkg":          "BenchmarkX-2 \t 100\t 12 ns/op\n",
		"failed run":      "pkg: p\nBenchmarkX-2 \t 100\t 12 ns/op\n--- FAIL: BenchmarkY\nFAIL\n",
		"failed pkg line": "pkg: p\nBenchmarkX-2 \t 100\t 12 ns/op\nFAIL\tp\t0.2s\n",
	} {
		if recs, err := Ingest(strings.NewReader(in), "c", time.Unix(1, 0)); err == nil {
			t.Errorf("%s: ingested %d records, want an error", name, len(recs))
		}
	}
}
