package serve

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// journalEntry is the durable record of one accepted async job: everything
// needed to re-run it after a crash. Written before the 202 acknowledgement,
// deleted when the job reaches a terminal state.
type journalEntry struct {
	ID              string           `json:"id"`
	Requests        []CompileRequest `json:"requests"`
	DefaultCompiler string           `json:"default_compiler,omitempty"`
	IncludeZAIR     bool             `json:"include_zair"`
}

// jobJournal persists accepted async jobs as one JSON file per job
// (<dir>/<id>.json), committed with the same temp-file + rename discipline
// as disk-cache entries so a crash mid-write never leaves a half-readable
// record — at worst a stale .tmp file, removed on the next open.
type jobJournal struct {
	dir string
	mu  sync.Mutex
}

// openJournal creates (if needed) the journal directory and removes stale
// temp files from interrupted writers.
func openJournal(dir string) (*jobJournal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	stale, _ := filepath.Glob(filepath.Join(dir, "*.tmp"))
	for _, p := range stale {
		os.Remove(p)
	}
	return &jobJournal{dir: dir}, nil
}

// record writes the entry durably; only after it returns may the job be
// acknowledged to the client.
func (jl *jobJournal) record(e journalEntry) error {
	data, err := json.MarshalIndent(e, "", " ")
	if err != nil {
		return err
	}
	jl.mu.Lock()
	defer jl.mu.Unlock()
	tmp, err := os.CreateTemp(jl.dir, e.ID+"-*.tmp")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), filepath.Join(jl.dir, e.ID+".json")); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// remove deletes a finished job's record. Best effort: a record that
// outlives its job only costs a redundant (cache-served) replay next start.
func (jl *jobJournal) remove(id string) {
	jl.mu.Lock()
	os.Remove(filepath.Join(jl.dir, id+".json"))
	jl.mu.Unlock()
}

// load reads every journal record, sorted by id for deterministic replay
// order. Unreadable records are returned by id in damaged (their files are
// removed) so the server can register them as interrupted instead of
// silently forgetting an accepted job.
func (jl *jobJournal) load() (entries []journalEntry, damaged []string, err error) {
	paths, err := filepath.Glob(filepath.Join(jl.dir, "*.json"))
	if err != nil {
		return nil, nil, err
	}
	sort.Strings(paths)
	for _, p := range paths {
		id := strings.TrimSuffix(filepath.Base(p), ".json")
		data, err := os.ReadFile(p)
		var e journalEntry
		if err != nil || json.Unmarshal(data, &e) != nil || e.ID != id || len(e.Requests) == 0 {
			damaged = append(damaged, id)
			os.Remove(p)
			continue
		}
		entries = append(entries, e)
	}
	return entries, damaged, nil
}

// OpenJournal attaches a crash-safe async-job journal rooted at dir
// (conventionally <cachedir>/jobs) and replays what a previous process left
// behind: every decodable record becomes a job again — same id, re-run from
// the start, cheap where the compile cache is warm — and every damaged one
// is registered as JobInterrupted so its id reports a loss instead of a
// 404. It returns the number of jobs replayed. Call once, before the
// handler serves traffic.
func (s *Server) OpenJournal(dir string) (int, error) {
	jl, err := openJournal(dir)
	if err != nil {
		return 0, err
	}
	entries, damaged, err := jl.load()
	if err != nil {
		return 0, err
	}
	s.journal = jl
	for _, id := range damaged {
		s.adoptJob(id, JobInterrupted, 0)
		s.log.Warn("journal record damaged", "job_id", id)
	}
	for _, e := range entries {
		j := s.adoptJob(e.ID, JobPending, len(e.Requests))
		if j == nil {
			continue // id collision with a live job; drop the stale record
		}
		s.jobsReplayed.Add(1)
		s.log.Info("journal replay", "job_id", e.ID, "requests", len(e.Requests))
		s.startJob(j, e.Requests, e.DefaultCompiler, e.IncludeZAIR)
	}
	return int(s.jobsReplayed.Load()), nil
}

// adoptJob registers a job under a recovered id, bumping jobSeq past its
// numeric suffix so future ids never collide. Returns nil if the id is
// already taken.
func (s *Server) adoptJob(id string, status JobStatus, total int) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.jobs[id]; ok {
		return nil
	}
	var n int
	if _, err := fmt.Sscanf(strings.TrimPrefix(id, "job-"), "%d", &n); err == nil && n > s.jobSeq {
		s.jobSeq = n
	}
	j := newJobState(id, total)
	j.status = status
	s.jobs[id] = j
	s.jobOrder = append(s.jobOrder, id)
	return j
}

// dropJob forgets a job that was registered but never acknowledged (its
// journal write failed, so the client got an error, not a job id).
func (s *Server) dropJob(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.jobs, id)
	for i, jid := range s.jobOrder {
		if jid == id {
			s.jobOrder = append(s.jobOrder[:i], s.jobOrder[i+1:]...)
			break
		}
	}
}
