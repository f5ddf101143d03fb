package serve

import (
	"bytes"
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"zac/internal/arch"
	"zac/internal/bench"
	"zac/internal/compiler"
	"zac/internal/core"
	"zac/internal/engine"
)

var update = flag.Bool("update", false, "rewrite golden files")

// tinyQASM is a 3-qubit GHZ preparation — small enough that a compile is
// effectively instant, so API tests stay fast.
const tinyQASM = `OPENQASM 2.0;
include "qelib1.inc";
qreg q[3];
h q[0];
cx q[0],q[1];
cx q[1],q[2];
`

func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s := New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// do issues one request and returns status and body.
func do(t *testing.T, method, url string, body string) (int, []byte) {
	t.Helper()
	var rdr *strings.Reader = strings.NewReader(body)
	req, err := http.NewRequest(method, url, rdr)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp.StatusCode, buf.Bytes()
}

// compileMSRe scrubs the wall-clock compile-time field, the only
// nondeterministic part of a compile response.
var compileMSRe = regexp.MustCompile(`"compile_ms": [0-9.e+-]+`)

// checkGolden compares got (after scrubbing wall-clock fields) against
// testdata/<name>.golden, rewriting it under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	scrubbed := compileMSRe.ReplaceAll(got, []byte(`"compile_ms": 0`))
	path := filepath.Join("testdata", name+".golden")
	if *update {
		os.MkdirAll("testdata", 0o755)
		if err := os.WriteFile(path, scrubbed, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if !bytes.Equal(scrubbed, want) {
		t.Errorf("%s: response differs from golden file\n--- got ---\n%s\n--- want ---\n%s", name, scrubbed, want)
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	status, body := do(t, "GET", ts.URL+"/healthz", "")
	if status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	checkGolden(t, "healthz", body)
}

func TestCompileSingleGolden(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	status, body := do(t, "POST", ts.URL+"/v1/compile",
		`{"qasm":`+strconv(tinyQASM)+`,"name":"ghz3"}`)
	if status != http.StatusOK {
		t.Fatalf("status = %d: %s", status, body)
	}
	checkGolden(t, "compile_single", body)
}

func TestCompileBatchGolden(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	req := `{"requests":[
		{"qasm":` + strconv(tinyQASM) + `,"name":"ghz3"},
		{"qasm":` + strconv(tinyQASM) + `,"name":"ghz3","setting":"Vanilla"},
		{"circuit":"no_such_bench"}
	]}`
	status, body := do(t, "POST", ts.URL+"/v1/compile?zair=0", req)
	if status != http.StatusOK {
		t.Fatalf("status = %d: %s", status, body)
	}
	checkGolden(t, "compile_batch", body)
}

func TestCompileErrorsGolden(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	for _, tc := range []struct {
		name, body string
		status     int
	}{
		{"err_empty", `{}`, http.StatusBadRequest},
		{"err_both", `{"circuit":"ghz_n23","qasm":"x"}`, http.StatusBadRequest},
		{"err_setting", `{"circuit":"ghz_n23","setting":"warp9"}`, http.StatusBadRequest},
		{"err_badqasm", `{"qasm":"not qasm at all"}`, http.StatusBadRequest},
	} {
		status, body := do(t, "POST", ts.URL+"/v1/compile", tc.body)
		if status != tc.status {
			t.Fatalf("%s: status = %d: %s", tc.name, status, body)
		}
		checkGolden(t, tc.name, body)
	}
}

// TestCompileMatchesCLI is the parity guarantee: the service's ZAIR output
// must be byte-identical to what `zac -out` writes for the same input.
func TestCompileMatchesCLI(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	status, got := do(t, "POST", ts.URL+"/v1/compile?format=zair",
		`{"circuit":"bv_n14"}`)
	if status != http.StatusOK {
		t.Fatalf("status = %d: %s", status, got)
	}

	// The CLI path: core.Compile + json.MarshalIndent(prog, "", " ").
	b, err := bench.ByName("bv_n14")
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Compile(b.Build(), arch.Reference(), core.Default())
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.MarshalIndent(res.Program, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("service ZAIR differs from CLI encoding (%d vs %d bytes)", len(got), len(want))
	}

	// A cached replay must serve the same bytes.
	_, again := do(t, "POST", ts.URL+"/v1/compile?format=zair", `{"circuit":"bv_n14"}`)
	if !bytes.Equal(again, want) {
		t.Fatal("cached replay returned different ZAIR bytes")
	}
}

func TestCompileCachedFlagAndMetrics(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	body := `{"qasm":` + strconv(tinyQASM) + `,"name":"ghz3"}`
	_, first := do(t, "POST", ts.URL+"/v1/compile", body)
	_, second := do(t, "POST", ts.URL+"/v1/compile", body)
	var r1, r2 CompileResponse
	if err := json.Unmarshal(first, &r1); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(second, &r2); err != nil {
		t.Fatal(err)
	}
	if r1.Cached || !r2.Cached {
		t.Errorf("cached flags = %v, %v; want false, true", r1.Cached, r2.Cached)
	}

	m := s.Metrics()
	if m.CompilesTotal != 2 || m.Cache.Misses != 1 || m.Cache.MemHits != 1 {
		t.Errorf("metrics = %+v; want 2 compiles, 1 miss, 1 mem hit", m)
	}
	lat, ok := m.Compilers["zac"]
	if !ok || lat.Count != 1 || lat.AvgMS <= 0 {
		t.Errorf("latency aggregate missing or empty: %+v", m.Compilers)
	}
	for _, pass := range []string{"validate", "place", "schedule", "emit", "fidelity"} {
		pl, ok := m.Passes["zac/"+pass]
		if !ok || pl.Count != 1 {
			t.Errorf("pass latency for zac/%s missing: %+v", pass, m.Passes)
		}
	}

	status, raw := do(t, "GET", ts.URL+"/metrics", "")
	if status != http.StatusOK || !bytes.Contains(raw, []byte(`"cache"`)) {
		t.Errorf("GET /metrics = %d: %s", status, raw)
	}
}

// TestBaselineIgnoresSARestarts: baselines ignore the restart count, so a
// request that sets it must be served from the entry the same request
// without it compiled, and a zac request with the count left at its default
// must share the entry of the explicit single chain.
func TestBaselineIgnoresSARestarts(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	for _, tc := range []struct{ plain, variant string }{
		{`{"circuit":"bv_n14","compiler":"enola"}`, `{"circuit":"bv_n14","compiler":"enola","sa_restarts":4}`},
		{`{"circuit":"bv_n14"}`, `{"circuit":"bv_n14","sa_restarts":1}`},
	} {
		before := s.CacheStats()
		_, first := do(t, "POST", ts.URL+"/v1/compile", tc.plain)
		_, second := do(t, "POST", ts.URL+"/v1/compile", tc.variant)
		var r1, r2 CompileResponse
		if err := json.Unmarshal(first, &r1); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(second, &r2); err != nil {
			t.Fatal(err)
		}
		after := s.CacheStats()
		if r1.Cached || !r2.Cached || after.Misses-before.Misses != 1 || after.MemHits-before.MemHits != 1 {
			t.Errorf("%s after %s: cached %v, %v; %d misses, %d memory hits; want false, true; 1, 1",
				tc.variant, tc.plain, r1.Cached, r2.Cached,
				after.Misses-before.Misses, after.MemHits-before.MemHits)
		}
	}
}

// TestDiskTierAcrossServers simulates a service restart: a second Server
// over the same cache directory must serve the first server's compilations
// from disk, with identical ZAIR bytes.
func TestDiskTierAcrossServers(t *testing.T) {
	dir := t.TempDir()
	disk1, err := engine.OpenDiskCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, ts1 := newTestServer(t, Options{Disk: disk1})
	body := `{"qasm":` + strconv(tinyQASM) + `,"name":"ghz3"}`
	_, first := do(t, "POST", ts1.URL+"/v1/compile?format=zair", body)

	disk2, err := engine.OpenDiskCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	s2, ts2 := newTestServer(t, Options{Disk: disk2})
	status, second := do(t, "POST", ts2.URL+"/v1/compile?format=zair", body)
	if status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	if !bytes.Equal(first, second) {
		t.Fatal("restarted server returned different ZAIR bytes")
	}
	if st := s2.CacheStats(); st.DiskHits != 1 || st.Misses != 0 {
		t.Errorf("restart lookup not served from disk: %+v", st)
	}
	var resp CompileResponse
	_, envelope := do(t, "POST", ts2.URL+"/v1/compile", body)
	if err := json.Unmarshal(envelope, &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Cached {
		t.Error("disk-restored response not flagged as cached")
	}
}

func TestJobLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	req := `{"async":true,"requests":[
		{"qasm":` + strconv(tinyQASM) + `,"name":"ghz3"},
		{"circuit":"no_such_bench"}
	]}`
	status, body := do(t, "POST", ts.URL+"/v1/compile?zair=0", req)
	if status != http.StatusAccepted {
		t.Fatalf("async submit status = %d: %s", status, body)
	}
	var sub JobResponse
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	if sub.ID == "" || sub.Total != 2 {
		t.Fatalf("submit response = %+v", sub)
	}

	deadline := time.Now().Add(10 * time.Second)
	var jr JobResponse
	for {
		status, body = do(t, "GET", ts.URL+"/v1/jobs/"+sub.ID, "")
		if status != http.StatusOK {
			t.Fatalf("poll status = %d: %s", status, body)
		}
		if err := json.Unmarshal(body, &jr); err != nil {
			t.Fatal(err)
		}
		if jr.Status == JobDone || jr.Status == JobFailed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", jr.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if jr.Status != JobDone || jr.Completed != 2 || len(jr.Results) != 2 {
		t.Fatalf("finished job = %+v", jr)
	}
	if jr.Results[0].Error != "" || jr.Results[0].Result == nil {
		t.Errorf("item 0 should have succeeded: %+v", jr.Results[0])
	}
	if jr.Results[1].Error == "" {
		t.Errorf("item 1 should carry its error: %+v", jr.Results[1])
	}

	if status, _ := do(t, "GET", ts.URL+"/v1/jobs/job-999", ""); status != http.StatusNotFound {
		t.Errorf("unknown job status = %d, want 404", status)
	}
}

func TestBatchLimit(t *testing.T) {
	_, ts := newTestServer(t, Options{MaxBatch: 2})
	req := `{"requests":[{"circuit":"a"},{"circuit":"b"},{"circuit":"c"}]}`
	status, _ := do(t, "POST", ts.URL+"/v1/compile", req)
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", status)
	}
}

func TestFormatZairRejectsBatchAndAsync(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	for _, body := range []string{
		`{"requests":[{"circuit":"bv_n14"}]}`,
		`{"circuit":"bv_n14","async":true}`,
	} {
		if status, _ := do(t, "POST", ts.URL+"/v1/compile?format=zair", body); status != http.StatusBadRequest {
			t.Errorf("format=zair on %s: status = %d, want 400", body, status)
		}
	}
}

// strconv JSON-encodes a string literal for embedding in request bodies.
func strconv(s string) string {
	b, _ := json.Marshal(s)
	return string(b)
}

// TestDefaultArchShared requires every request on a compiler's default
// architecture to resolve to one value, so its fingerprint is computed
// once; an AOD override gets its own copy.
func TestDefaultArchShared(t *testing.T) {
	s := New(Options{})
	for _, name := range []string{"zac", "enola"} {
		c, err := compiler.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		a1, err := s.resolveArch(CompileRequest{}, c)
		if err != nil {
			t.Fatal(err)
		}
		a2, err := s.resolveArch(CompileRequest{}, c)
		if err != nil {
			t.Fatal(err)
		}
		if a1 != a2 {
			t.Errorf("%s: two requests resolved two default architectures", name)
		}
		a1.Fingerprint()
		if allocs := testing.AllocsPerRun(20, func() {
			a, _ := s.resolveArch(CompileRequest{}, c)
			a.Fingerprint()
		}); allocs != 0 {
			t.Errorf("%s: resolving the default architecture allocates %v times", name, allocs)
		}
		if w, _ := s.resolveArch(CompileRequest{AODs: 2}, c); w == a1 || len(w.AODs) != 2 {
			t.Errorf("%s: AOD override did not copy the default", name)
		}
	}
}
