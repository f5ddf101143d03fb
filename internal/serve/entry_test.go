package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"zac/internal/arch"
	"zac/internal/bench"
	"zac/internal/core"
	"zac/internal/engine"
	"zac/internal/fidelity"
	"zac/internal/zair"
)

// ghz3Body is the request the disk-format tests replay.
var ghz3Body = `{"qasm":` + strconv(tinyQASM) + `,"name":"ghz3"}`

// ghz3Key is ghz3Body's cache key under entryKeyPrefix.
func ghz3Key(t *testing.T) string {
	t.Helper()
	_, circKey, err := resolveCircuit(CompileRequest{QASM: tinyQASM, Name: "ghz3"})
	if err != nil {
		t.Fatal(err)
	}
	return entryKey("zac", circKey, arch.Reference(), 0)
}

// referenceReplies is what a server without a disk tier answers for body:
// the raw ZAIR and the full reply with the wall-clock field scrubbed.
func referenceReplies(t *testing.T, body string) (zairReply, fullReply []byte) {
	t.Helper()
	_, ts := newTestServer(t, Options{})
	_, zairReply = do(t, "POST", ts.URL+"/v1/compile?format=zair", body)
	_, fullReply = do(t, "POST", ts.URL+"/v1/compile", body)
	return zairReply, compileMSRe.ReplaceAll(fullReply, []byte(`"compile_ms": 0`))
}

// assertServesReference boots a server on disk, replays ghz3Body, and checks
// that it compiled afresh and answered exactly what a server without a disk
// tier answers.
func assertServesReference(t *testing.T, disk *engine.DiskCache, wantZAIR, wantFull []byte) {
	t.Helper()
	s, ts := newTestServer(t, Options{Disk: disk})
	status, got := do(t, "POST", ts.URL+"/v1/compile?format=zair", ghz3Body)
	if status != http.StatusOK || !bytes.Equal(got, wantZAIR) {
		t.Fatalf("status %d; ZAIR reply equals the reference: %v", status, bytes.Equal(got, wantZAIR))
	}
	if st := s.CacheStats(); st.DiskHits != 0 || st.Misses != 1 {
		t.Errorf("lookup was not a fresh compile: %+v", st)
	}
	s.cache.Reset() // the full reply comes from disk, in the new format
	_, full := do(t, "POST", ts.URL+"/v1/compile", ghz3Body)
	full = compileMSRe.ReplaceAll(full, []byte(`"compile_ms": 0`))
	if !bytes.Equal(full, bytes.Replace(wantFull, []byte(`"cached": false`), []byte(`"cached": true`), 1)) {
		t.Errorf("full reply differs from the reference\n--- got ---\n%s", full)
	}
	if st := s.CacheStats(); st.DiskHits != 1 {
		t.Errorf("restored reply did not come from disk: %+v", st)
	}
}

// TestDiskIgnoresSnapshotEntries: a cache directory filled in the older
// format (a JSON object of the program plus the result scalars) under the
// older "serve|" keys is never decoded as an entry. The old entry here holds
// another circuit's compilation, so a misread would show in the reply bytes.
func TestDiskIgnoresSnapshotEntries(t *testing.T) {
	wantZAIR, wantFull := referenceReplies(t, ghz3Body)
	b, err := bench.ByName("bv_n14")
	if err != nil {
		t.Fatal(err)
	}
	other, err := core.Compile(b.Build(), arch.Reference(), core.Default())
	if err != nil {
		t.Fatal(err)
	}
	snapshot, err := json.Marshal(struct {
		Program          *zair.Program      `json:"program"`
		Stats            fidelity.Stats     `json:"stats"`
		Breakdown        fidelity.Breakdown `json:"breakdown"`
		Duration         float64            `json:"duration_us"`
		CompileTime      time.Duration      `json:"compile_ns"`
		NumRydbergStages int                `json:"rydberg_stages"`
		NumJobs          int                `json:"rearrange_jobs"`
		ReusedGates      int                `json:"reused_gates"`
		TotalMoves       int                `json:"moves"`
		Passes           []core.PassTiming  `json:"passes,omitempty"`
	}{
		other.Program, other.Stats, other.Breakdown, other.Duration, other.CompileTime,
		other.NumRydbergStages, other.NumJobs, other.ReusedGates, other.TotalMoves, other.Passes,
	})
	if err != nil {
		t.Fatal(err)
	}
	disk, err := engine.OpenDiskCache(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	oldKey := "serve|" + strings.TrimPrefix(ghz3Key(t), entryKeyPrefix)
	if err := disk.Put(oldKey, snapshot); err != nil {
		t.Fatal(err)
	}
	assertServesReference(t, disk, wantZAIR, wantFull)
	if data, ok := disk.Get(oldKey); !ok || !bytes.Equal(data, snapshot) {
		t.Error("the old-format entry was touched")
	}
}

// TestDiskDropsMalformedEntries: a payload under the current key that has no
// header separator, a header that does not decode, or a header that does
// not match its ZAIR is dropped and recomputed, never served.
func TestDiskDropsMalformedEntries(t *testing.T) {
	wantZAIR, wantFull := referenceReplies(t, ghz3Body)
	header := `{"zair_bytes":2,"name":"ghz3","num_qubits":3}`
	for _, tc := range []struct{ name, payload string }{
		{"no separator", header + `{}`},
		{"snapshot payload", `{"program":{"name":"ghz3","num_qubits":3,"instructions":[]},"moves":0}`},
		{"bad header", "not json\n{}"},
		{"null header", "null\n{}"},
		{"length mismatch", header + "\n{ }"},
		{"empty ZAIR", `{"zair_bytes":0,"name":"ghz3"}` + "\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := entryCodec.Decode([]byte(tc.payload)); err == nil {
				t.Fatal("payload decoded")
			}
			disk, err := engine.OpenDiskCache(t.TempDir(), 0)
			if err != nil {
				t.Fatal(err)
			}
			key := ghz3Key(t)
			if err := disk.Put(key, []byte(tc.payload)); err != nil {
				t.Fatal(err)
			}
			assertServesReference(t, disk, wantZAIR, wantFull)
			data, ok := disk.Get(key)
			if !ok {
				t.Fatal("the recompute was not written back")
			}
			if v, err := entryCodec.Decode(data); err != nil || !bytes.Equal(v.(*entry).zair, wantZAIR) {
				t.Errorf("written-back entry does not hold the program (err %v)", err)
			}
		})
	}
}

// TestConcurrentHitsShareZAIR drives many concurrent hits of one key —
// plain replies, ?format=zair, and polls of retained jobs — through the one
// cached program they all share, then checks that nothing wrote into it.
// Run it under -race.
func TestConcurrentHitsShareZAIR(t *testing.T) {
	s := New(Options{})
	h := s.Handler()
	serveReq := func(method, target, body string) (int, []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, target, strings.NewReader(body)))
		return rec.Code, rec.Body.Bytes()
	}
	const body = `{"circuit":"bv_n14"}`
	status, first := serveReq("POST", "/v1/compile?format=zair", body)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, first)
	}
	first = bytes.Clone(first)
	var compactFirst bytes.Buffer
	if err := json.Compact(&compactFirst, first); err != nil {
		t.Fatal(err)
	}
	sameProgram := func(r *CompileResponse) error {
		var got bytes.Buffer
		if err := json.Compact(&got, r.ZAIR); err != nil {
			return err
		}
		if !bytes.Equal(got.Bytes(), compactFirst.Bytes()) {
			return errors.New("reply carries a different program")
		}
		return nil
	}
	// pollJob polls job id until it is done and checks every result.
	pollJob := func(id string) error {
		for {
			status, raw := serveReq("GET", "/v1/jobs/"+id, "")
			var jr JobResponse
			if err := json.Unmarshal(raw, &jr); status != http.StatusOK || err != nil {
				return fmt.Errorf("poll %s: status %d, %v", id, status, err)
			}
			if jr.Status != JobDone {
				runtime.Gosched()
				continue
			}
			for _, it := range jr.Results {
				if it.Result == nil {
					return fmt.Errorf("job %s: %s", id, it.Error)
				}
				if err := sameProgram(it.Result); err != nil {
					return fmt.Errorf("job %s: %w", id, err)
				}
			}
			return nil
		}
	}
	submitJob := func() (string, error) {
		status, raw := serveReq("POST", "/v1/compile", `{"async":true,"requests":[`+body+`,`+body+`]}`)
		var jr JobResponse
		if err := json.Unmarshal(raw, &jr); status != http.StatusAccepted || err != nil {
			return "", fmt.Errorf("submit: status %d, %v", status, err)
		}
		return jr.ID, nil
	}
	shared, err := submitJob()
	if err == nil {
		err = pollJob(shared)
	}
	if err != nil {
		t.Fatal(err)
	}

	const clients, rounds = 8, 12
	errs := make(chan error, clients*rounds)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				var err error
				switch (c + i) % 4 {
				case 0:
					if status, got := serveReq("POST", "/v1/compile?format=zair", body); status != http.StatusOK || !bytes.Equal(got, first) {
						err = fmt.Errorf("?format=zair: status %d, reply differs from the first", status)
					}
				case 1:
					var r CompileResponse
					status, raw := serveReq("POST", "/v1/compile", body)
					if err = json.Unmarshal(raw, &r); err == nil && (status != http.StatusOK || !r.Cached) {
						err = fmt.Errorf("plain: status %d, cached %v", status, r.Cached)
					}
					if err == nil {
						err = sameProgram(&r)
					}
				case 2:
					err = pollJob(shared)
				default:
					var id string
					if id, err = submitJob(); err == nil {
						err = pollJob(id)
					}
				}
				if err != nil {
					errs <- err
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	v, err := s.cache.Do(entryKey("zac", "circ=bv_n14", arch.Reference(), 0), entryCodec, func() (any, error) {
		return nil, errors.New("the entry left the cache")
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(v.(*entry).zair, first) {
		t.Fatal("the cached ZAIR bytes changed")
	}
	if st := s.CacheStats(); st.Misses != 1 {
		t.Errorf("the key compiled %d times", st.Misses)
	}
}
