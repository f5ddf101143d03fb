// Package benchsuite is the kernel half of the performance observatory
// (RZBENCH/openhpca-style); the application numbers come from perfbench.
// Ingest turns `go test -bench -benchmem` output into records stamped with
// a machine fingerprint and a commit. They are appended to a persistent
// JSON-lines store and consumed by trend queries, markdown/HTML report
// generators, and a benchstat-style Mann-Whitney regression gate — so
// "measurably faster" is always a measured, statistically gated claim.
package benchsuite

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"zac/internal/benchsuite/stats"
)

// SchemaVersion is the record schema stamped into every store line, bumped
// on incompatible Record changes so old stores stay readable (readers skip
// newer-versioned lines they do not understand). History: v1 carried ns/op
// only; v2 added the b_per_op/allocs_per_op allocation vectors. v1 lines
// parse unchanged — the new vectors are simply absent — and fields a
// reader does not know, such as kind, arch_fp and warmup on older v2
// lines, are ignored.
const SchemaVersion = 2

// Record is one benchmark result measured at one commit on one machine:
// its samples plus everything needed to decide, later, whether it may be
// compared with another record at all.
type Record struct {
	// Schema is the record format version (SchemaVersion at write time).
	Schema int `json:"schema"`
	// Case is the benchmark's package-qualified name (see Ingest).
	Case string `json:"case"`
	// Commit is the VCS revision of the measured tree.
	Commit string `json:"commit"`
	// UnixTime is the capture time in seconds (caller-supplied so replays
	// and tests are deterministic).
	UnixTime int64 `json:"unix_time"`
	// Machine is the full machine fingerprint; MachineID its digest, the
	// store shard key and the gate's comparability check.
	Machine   Fingerprint `json:"machine"`
	MachineID string      `json:"machine_id"`
	// InnerIters is the benchmark's b.N: the operations behind one sample.
	InnerIters int `json:"inner_iters"`
	// Procs is the runtime.GOMAXPROCS the benchmark ran under, its "-P"
	// name suffix. The gate neither pools nor compares records whose Procs
	// differ. omitempty keeps pre-existing store lines (which carry no
	// field, i.e. 0 = unknown) comparable with each other.
	Procs int `json:"gomaxprocs,omitempty"`
	// NsPerOp holds the per-operation nanosecond samples — the raw
	// material of the Mann-Whitney gate.
	NsPerOp []float64 `json:"ns_per_op"`
	// BPerOp and AllocsPerOp hold the per-operation heap-bytes and
	// heap-allocations samples, gated beside NsPerOp; absent on schema-1
	// records.
	BPerOp      []float64 `json:"b_per_op,omitempty"`
	AllocsPerOp []float64 `json:"allocs_per_op,omitempty"`
}

// Store is the persistent, append-only results store: one JSON-lines file
// per machine fingerprint under a directory ("<dir>/<machine-id>.jsonl").
// Appends are O(1) file appends; every read re-scans, which at benchmark
// cadence (tens of records per commit) stays trivially cheap and keeps the
// format greppable and diff-merge friendly.
type Store struct {
	dir string
}

// OpenStore opens (creating if needed) the store rooted at dir.
func OpenStore(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("benchsuite: empty store dir")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("benchsuite: open store: %w", err)
	}
	return &Store{dir: dir}, nil
}

// shard returns the JSONL path holding one machine's records.
func (s *Store) shard(machineID string) string {
	return filepath.Join(s.dir, machineID+".jsonl")
}

// Append appends records to their machines' shards, preserving argument
// order within each shard. Records never overwrite existing lines — the
// store is strictly append-only.
func (s *Store) Append(records []Record) error {
	byMachine := map[string][]Record{}
	var order []string
	for _, r := range records {
		if r.MachineID == "" {
			return fmt.Errorf("benchsuite: record %q has no machine id", r.Case)
		}
		if _, seen := byMachine[r.MachineID]; !seen {
			order = append(order, r.MachineID)
		}
		byMachine[r.MachineID] = append(byMachine[r.MachineID], r)
	}
	for _, id := range order {
		f, err := os.OpenFile(s.shard(id), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("benchsuite: append: %w", err)
		}
		w := bufio.NewWriter(f)
		for _, r := range byMachine[id] {
			line, err := json.Marshal(r)
			if err != nil {
				f.Close()
				return fmt.Errorf("benchsuite: encode record %q: %w", r.Case, err)
			}
			w.Write(line)
			w.WriteByte('\n')
		}
		if err := w.Flush(); err != nil {
			f.Close()
			return fmt.Errorf("benchsuite: append: %w", err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("benchsuite: append: %w", err)
		}
	}
	return nil
}

// Machines lists the machine ids with at least one record, sorted.
func (s *Store) Machines() ([]string, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("benchsuite: list machines: %w", err)
	}
	var ids []string
	for _, e := range entries {
		if name, ok := strings.CutSuffix(e.Name(), ".jsonl"); ok && !e.IsDir() {
			ids = append(ids, name)
		}
	}
	sort.Strings(ids)
	return ids, nil
}

// Records reads every record of one machine in append order. An unknown
// machine yields an empty slice, not an error; lines with a newer schema
// than this binary understands are skipped.
func (s *Store) Records(machineID string) ([]Record, error) {
	f, err := os.Open(s.shard(machineID))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("benchsuite: read records: %w", err)
	}
	defer f.Close()
	var out []Record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var r Record
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("benchsuite: %s:%d: corrupt record: %w", s.shard(machineID), lineNo, err)
		}
		if r.Schema > SchemaVersion {
			continue
		}
		out = append(out, r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("benchsuite: read records: %w", err)
	}
	return out, nil
}

// TrendPoint is one commit's aggregated view of a case on one machine:
// every sample measured for that (case, commit) merged into one summary.
type TrendPoint struct {
	Commit  string
	Time    int64 // earliest record time of the commit, unix seconds
	Summary stats.Summary
	// Samples is the merged ns/op vector behind Summary.
	Samples []float64
	// BSamples and AllocSamples are the merged B/op and allocs/op vectors
	// (empty when the commit's records predate schema 2 and carry none).
	BSamples     []float64
	AllocSamples []float64
}

// Trend returns the per-commit trajectory of one case on one machine, in
// first-appended order of commits, keeping the most recent n commits
// (n <= 0 keeps all). Samples from several runs at one commit merge into
// one point — repetitions accumulate rather than shadow each other.
func (s *Store) Trend(machineID, caseName string, n int) ([]TrendPoint, error) {
	records, err := s.Records(machineID)
	if err != nil {
		return nil, err
	}
	var order []string
	points := map[string]*TrendPoint{}
	for _, r := range records {
		if r.Case != caseName {
			continue
		}
		p, ok := points[r.Commit]
		if !ok {
			p = &TrendPoint{Commit: r.Commit, Time: r.UnixTime}
			points[r.Commit] = p
			order = append(order, r.Commit)
		}
		if r.UnixTime < p.Time {
			p.Time = r.UnixTime
		}
		p.Samples = append(p.Samples, r.NsPerOp...)
		p.BSamples = append(p.BSamples, r.BPerOp...)
		p.AllocSamples = append(p.AllocSamples, r.AllocsPerOp...)
	}
	out := make([]TrendPoint, 0, len(order))
	for _, c := range order {
		p := points[c]
		p.Summary = stats.Summarize(p.Samples)
		out = append(out, *p)
	}
	if n > 0 && len(out) > n {
		out = out[len(out)-n:]
	}
	return out, nil
}

// Cases lists the distinct case names recorded for one machine, sorted.
func (s *Store) Cases(machineID string) ([]string, error) {
	records, err := s.Records(machineID)
	if err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	var names []string
	for _, r := range records {
		if !seen[r.Case] {
			seen[r.Case] = true
			names = append(names, r.Case)
		}
	}
	sort.Strings(names)
	return names, nil
}

// AtCommit returns one machine's records for a commit, in append order.
// Two special names resolve against the machine's append history: "latest"
// is the commit of the most recently appended record, "previous" the most
// recently appended commit other than it. A commit measured again after
// others is therefore "latest" again, not buried at its first appearance.
func (s *Store) AtCommit(machineID, commit string) ([]Record, error) {
	records, err := s.Records(machineID)
	if err != nil {
		return nil, err
	}
	if commit == "latest" || commit == "previous" {
		if commit = resolveAlias(records, commit); commit == "" {
			return nil, nil
		}
	}
	var out []Record
	for _, r := range records {
		if r.Commit == commit {
			out = append(out, r)
		}
	}
	return out, nil
}

// resolveAlias maps "latest" or "previous" to a commit by scanning records
// from the newest append backwards; "" when the history is too short.
func resolveAlias(records []Record, alias string) string {
	latest := ""
	for i := len(records) - 1; i >= 0; i-- {
		c := records[i].Commit
		switch {
		case latest == "":
			if alias == "latest" {
				return c
			}
			latest = c
		case c != latest:
			return c
		}
	}
	return ""
}
