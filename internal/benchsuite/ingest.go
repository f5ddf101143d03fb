package benchsuite

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"
)

// Ingest reads the text output of `go test -bench -benchmem` and returns
// one Record per benchmark result line, in input order, stamped with this
// machine's fingerprint, commit and now:
//
//   - Case is the import path of the preceding "pkg:" line, a dot, and the
//     benchmark name without its "-P" GOMAXPROCS suffix, e.g.
//     "zac/internal/matching.BenchmarkJVDense" or
//     "zac/internal/place.BenchmarkBuildPlan/qft_n18".
//   - Procs is the "-P" suffix, or 1 when the suffix is absent (go test
//     omits it at GOMAXPROCS 1).
//   - InnerIters is the line's iteration count (b.N).
//   - NsPerOp, BPerOp and AllocsPerOp hold the line's ns/op, B/op and
//     allocs/op as one sample each; other columns (b.ReportMetric units,
//     MB/s) are ignored.
//
// Each line stays its own record because InnerIters describes how its one
// sample was taken; `-count` repeats and repeated ingests of one commit
// merge per case in Trend and Gate. Ingest fails on a "FAIL" line (a
// failing benchmark's numbers are not measurements), on a malformed count
// or value, on a result line before any "pkg:" line, and on input without
// a single result line.
func Ingest(r io.Reader, commit string, now time.Time) ([]Record, error) {
	fp := Machine()
	var (
		records []Record
		pkg     string
		lineNo  int
	)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if p, ok := strings.CutPrefix(line, "pkg:"); ok {
			pkg = strings.TrimSpace(p)
			continue
		}
		if strings.HasPrefix(line, "FAIL") || strings.HasPrefix(line, "--- FAIL") {
			return nil, fmt.Errorf("benchsuite: ingest line %d: benchmark run failed: %s", lineNo, line)
		}
		fields := strings.Fields(line)
		// A bare benchmark name (no count) precedes a benchmark's own log
		// output; only full result lines carry measurements.
		if len(fields) < 2 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		rec, err := parseResult(fields)
		if err != nil {
			return nil, fmt.Errorf("benchsuite: ingest line %d: %w", lineNo, err)
		}
		if pkg == "" {
			return nil, fmt.Errorf("benchsuite: ingest line %d: result before any pkg: line", lineNo)
		}
		rec.Schema = SchemaVersion
		rec.Case = pkg + "." + rec.Case
		rec.Commit = commit
		rec.UnixTime = now.Unix()
		rec.Machine = fp
		rec.MachineID = fp.ID()
		records = append(records, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("benchsuite: ingest: %w", err)
	}
	if len(records) == 0 {
		return nil, fmt.Errorf("benchsuite: ingest: no benchmark result lines")
	}
	return records, nil
}

// parseResult reads one result line, "Name[-P] N value unit [value unit]...",
// into a record's name, procs, iteration count and samples.
func parseResult(fields []string) (Record, error) {
	name, procs := fields[0], 1
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if p, err := strconv.Atoi(name[i+1:]); err == nil && p > 0 {
			name, procs = name[:i], p
		}
	}
	n, err := strconv.Atoi(fields[1])
	if err != nil || n <= 0 {
		return Record{}, fmt.Errorf("%s: malformed iteration count %q", name, fields[1])
	}
	if len(fields)%2 != 0 {
		return Record{}, fmt.Errorf("%s: value without a unit", name)
	}
	rec := Record{Case: name, Procs: procs, InnerIters: n}
	for i := 2; i < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Record{}, fmt.Errorf("%s: malformed value %q", name, fields[i])
		}
		switch fields[i+1] {
		case "ns/op":
			rec.NsPerOp = []float64{v}
		case "B/op":
			rec.BPerOp = []float64{v}
		case "allocs/op":
			rec.AllocsPerOp = []float64{v}
		}
	}
	if rec.NsPerOp == nil {
		return Record{}, fmt.Errorf("%s: no ns/op column", name)
	}
	return rec, nil
}
