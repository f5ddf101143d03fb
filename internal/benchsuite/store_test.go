package benchsuite

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// rec builds a store record with the given identity and samples; the full
// fingerprint is synthesized from the machine id so cross-machine tests can
// mint distinct ones.
func rec(machineID, commit, name string, unix int64, samples ...float64) Record {
	return Record{
		Schema:     SchemaVersion,
		Case:       name,
		Commit:     commit,
		UnixTime:   unix,
		Machine:    Fingerprint{CPUModel: "cpu-" + machineID, Cores: 8, GOOS: "linux", GOARCH: "amd64", GoVersion: "go1.24"},
		MachineID:  machineID,
		InnerIters: 1,
		NsPerOp:    samples,
	}
}

// Append, reopen, and a trend query: records survive a store reopen, trend
// points come back in commit append order, and same-commit samples merge
// into one point.
func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append([]Record{
		rec("m1", "c1", "micro/jv_dense", 100, 100, 101, 99),
		rec("m1", "c1", "micro/sa_initial", 100, 500, 510),
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Append([]Record{
		rec("m1", "c2", "micro/jv_dense", 200, 104, 103),
		rec("m1", "c1", "micro/jv_dense", 250, 98), // late rerun at c1 merges
		rec("m1", "c3", "micro/jv_dense", 300, 90, 91, 92),
	}); err != nil {
		t.Fatal(err)
	}

	// Reopen from disk.
	s2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	machines, err := s2.Machines()
	if err != nil {
		t.Fatal(err)
	}
	if len(machines) != 1 || machines[0] != "m1" {
		t.Fatalf("Machines = %v, want [m1]", machines)
	}
	records, err := s2.Records("m1")
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 5 {
		t.Fatalf("Records = %d, want 5", len(records))
	}

	trend, err := s2.Trend("m1", "micro/jv_dense", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(trend) != 3 {
		t.Fatalf("trend has %d points, want 3", len(trend))
	}
	wantCommits := []string{"c1", "c2", "c3"}
	for i, p := range trend {
		if p.Commit != wantCommits[i] {
			t.Errorf("trend[%d].Commit = %s, want %s (ordering by commit append order)", i, p.Commit, wantCommits[i])
		}
	}
	if n := trend[0].Summary.N; n != 4 {
		t.Errorf("c1 merged sample count = %d, want 4 (3 + 1 late rerun)", n)
	}
	if trend[0].Time != 100 {
		t.Errorf("c1 point time = %d, want earliest record time 100", trend[0].Time)
	}

	// LastN keeps the most recent commits.
	tail, err := s2.Trend("m1", "micro/jv_dense", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(tail) != 2 || tail[0].Commit != "c2" || tail[1].Commit != "c3" {
		t.Fatalf("Trend(lastN=2) = %+v, want commits c2,c3", tail)
	}

	// Unknown machine and unknown case are empty, not errors.
	if r, err := s2.Records("nope"); err != nil || r != nil {
		t.Fatalf("unknown machine: %v, %v", r, err)
	}
	if tr, err := s2.Trend("m1", "nope", 0); err != nil || len(tr) != 0 {
		t.Fatalf("unknown case: %v, %v", tr, err)
	}
}

func TestStoreAtCommitAndLatest(t *testing.T) {
	s, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append([]Record{
		rec("m1", "c1", "micro/jv_dense", 1, 100),
		rec("m1", "c2", "micro/jv_dense", 2, 105),
	}); err != nil {
		t.Fatal(err)
	}
	at, err := s.AtCommit("m1", "c1")
	if err != nil || len(at) != 1 || at[0].Commit != "c1" {
		t.Fatalf("AtCommit(c1) = %+v, %v", at, err)
	}
	latest, err := s.AtCommit("m1", "latest")
	if err != nil || len(latest) != 1 || latest[0].Commit != "c2" {
		t.Fatalf("AtCommit(latest) = %+v, %v", latest, err)
	}
	prev, err := s.AtCommit("m1", "previous")
	if err != nil || len(prev) != 1 || prev[0].Commit != "c1" {
		t.Fatalf("AtCommit(previous) = %+v, %v", prev, err)
	}
	if only, err := s.AtCommit("nope", "previous"); err != nil || only != nil {
		t.Fatalf("AtCommit(previous) on empty machine = %+v, %v", only, err)
	}

	// Measuring c1 again after c2 makes c1 the latest and c2 the previous:
	// the aliases follow the newest append, not a commit's first appearance.
	if err := s.Append([]Record{rec("m1", "c1", "micro/jv_dense", 3, 99)}); err != nil {
		t.Fatal(err)
	}
	latest, err = s.AtCommit("m1", "latest")
	if err != nil || len(latest) != 2 || latest[0].Commit != "c1" {
		t.Fatalf("AtCommit(latest) after A,B,A = %+v, %v", latest, err)
	}
	prev, err = s.AtCommit("m1", "previous")
	if err != nil || len(prev) != 1 || prev[0].Commit != "c2" {
		t.Fatalf("AtCommit(previous) after A,B,A = %+v, %v", prev, err)
	}
}

// A schema-2 line carrying fields Record does not have (kind, arch_fp and
// warmup, which lines in older stores hold) still decodes, and the report
// renders it.
func TestStoreReadsLegacyLine(t *testing.T) {
	dir := t.TempDir()
	line := `{"schema":2,"case":"compile/zac/default/rb:n=8,depth=4,seed=1","kind":"compile","commit":"c1","unix_time":100,` +
		`"machine":{"cpu_model":"cpu-m1","cores":8,"goos":"linux","goarch":"amd64","go_version":"go1.24"},"machine_id":"m1",` +
		`"arch_fp":"0123456789abcdef","warmup":1,"inner_iters":1,"gomaxprocs":2,` +
		`"ns_per_op":[42000,42100,41900,42050,42010],"b_per_op":[900,900,900,900,900],"allocs_per_op":[12,12,12,12,12]}` + "\n"
	if err := os.WriteFile(filepath.Join(dir, "m1.jsonl"), []byte(line), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	records, err := s.Records("m1")
	if err != nil || len(records) != 1 {
		t.Fatalf("Records = %+v, %v; want the one legacy line", records, err)
	}
	if r := records[0]; r.Commit != "c1" || r.Procs != 2 || len(r.NsPerOp) != 5 || len(r.AllocsPerOp) != 5 {
		t.Errorf("legacy record = %+v", r)
	}
	md, err := MarkdownReport(s, ReportOptions{})
	if err != nil {
		t.Fatal(err)
	}
	row := "| `compile/zac/default/rb:n=8,depth=4,seed=1` | `c1` | 5 | 42010.0 | [41900.0, 42100.0] @94% | 900 B / 12.0 | — | 42010.0 |"
	if !strings.Contains(md, row) {
		t.Errorf("report lacks the legacy row %q:\n%s", row, md)
	}
}
