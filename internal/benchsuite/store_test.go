package benchsuite

import "testing"

// rec builds a store record with the given identity and samples; the full
// fingerprint is synthesized from the machine id so cross-machine tests can
// mint distinct ones.
func rec(machineID, commit, name string, unix int64, samples ...float64) Record {
	return Record{
		Schema:     SchemaVersion,
		Case:       name,
		Kind:       KindMicro,
		Commit:     commit,
		UnixTime:   unix,
		Machine:    Fingerprint{CPUModel: "cpu-" + machineID, Cores: 8, GOOS: "linux", GOARCH: "amd64", GoVersion: "go1.24"},
		MachineID:  machineID,
		Warmup:     1,
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
