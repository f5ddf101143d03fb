package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"zac/internal/bench"
	"zac/internal/engine"
	"zac/internal/zair"
)

// referenceEncode is the response encoding the splicing writer replaces:
// one json.MarshalIndent pass over the whole response, programs included.
func referenceEncode(t testing.TB, v any) []byte {
	t.Helper()
	want, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(want, '\n')
}

// responseShapes wraps compile results in every response shape the service
// writes them in: single, a 2-item batch, and a job poll with an error item
// between two results. Trace IDs sit both before a result's "zair" key and
// after its closing brace.
func responseShapes(r *CompileResponse) map[string]any {
	traced := *r
	traced.TraceID = "0123456789abcdef"
	return map[string]any{
		"single":        r,
		"single traced": &traced,
		"batch": BatchResponse{Results: []BatchItem{
			{Result: &traced, TraceID: traced.TraceID},
			{Result: r},
		}},
		"job": JobResponse{ID: "job-7", Status: JobDone, Total: 3, Completed: 3, Results: []BatchItem{
			{Result: r},
			{Error: `no "zair": 0 here`, TraceID: "fedcba9876543210"},
			{Result: &traced, TraceID: traced.TraceID},
		}},
	}
}

// assertEncodesAsReference checks the splicing writer against the reference
// on every response shape of r, and that encoding left r's ZAIR alone.
func assertEncodesAsReference(t testing.TB, label string, r *CompileResponse) {
	t.Helper()
	program := bytes.Clone(r.ZAIR)
	for shape, v := range responseShapes(r) {
		want := referenceEncode(t, v)
		got, err := encodeResponse(v)
		if err != nil {
			t.Fatalf("%s, %s: %v", label, shape, err)
		}
		if !bytes.Equal(got, want) {
			at := 0
			for at < len(got) && at < len(want) && got[at] == want[at] {
				at++
			}
			t.Fatalf("%s, %s: response differs from json.MarshalIndent at byte %d (%d vs %d bytes)\n--- got ---\n%s\n--- want ---\n%s",
				label, shape, at, len(got), len(want), excerpt(got, at), excerpt(want, at))
		}
	}
	if !bytes.Equal(r.ZAIR, program) {
		t.Fatalf("%s: encoding wrote into the shared ZAIR bytes", label)
	}
}

// excerpt is the neighbourhood of byte at.
func excerpt(b []byte, at int) string {
	lo, hi := max(at-80, 0), min(at+80, len(b))
	return string(b[lo:hi])
}

// TestEncodeResponseMatchesMarshalIndent is the response writer's
// differential test: for the 17 paper circuits, with and without ZAIR, and
// for a baseline compiler's header-only program, every response shape is
// byte-identical to what json.MarshalIndent writes.
func TestEncodeResponseMatchesMarshalIndent(t *testing.T) {
	s := New(Options{})
	ctx := context.Background()
	var reqs []CompileRequest
	for _, b := range bench.All() {
		reqs = append(reqs, CompileRequest{Circuit: b.Name})
	}
	reqs = append(reqs, CompileRequest{Circuit: "bv_n14", Compiler: "enola"})
	for _, req := range reqs {
		label := req.Circuit + "/" + req.Compiler
		for _, includeZAIR := range []bool{true, false} {
			r, _, err := s.compileOne(ctx, req, "", includeZAIR)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if includeZAIR == (len(r.ZAIR) == 0) {
				t.Fatalf("%s: includeZAIR=%v but the response carries %d ZAIR bytes", label, includeZAIR, len(r.ZAIR))
			}
			assertEncodesAsReference(t, fmt.Sprintf("%s zair=%v", label, includeZAIR), r)
		}
	}
}

// genProgram builds a small random program named name: nil, empty and
// filled slices of every instruction kind, so indented output holds empty
// arrays, null and nesting down to machine instructions.
func genProgram(r *rand.Rand, name string) *zair.Program {
	locs := func() []zair.QLoc {
		switch r.Intn(3) {
		case 0:
			return nil
		case 1:
			return []zair.QLoc{}
		}
		return []zair.QLoc{{Q: r.Intn(50), A: r.Intn(3) - 1, R: r.Intn(20), C: r.Intn(20)}}
	}
	ints := func() []int {
		if r.Intn(2) == 0 {
			return []int{}
		}
		return []int{r.Intn(9), r.Intn(9)}
	}
	floats := func() []float64 {
		if r.Intn(2) == 0 {
			return nil
		}
		return []float64{r.NormFloat64() * 1e3, -0.5}
	}
	p := &zair.Program{Name: name, NumQubits: r.Intn(100)}
	if r.Intn(4) == 0 {
		p.Instructions = []zair.Instruction{}
	}
	for n := r.Intn(6); n > 0; n-- {
		switch r.Intn(4) {
		case 0:
			p.Instructions = append(p.Instructions, zair.Init{Locs: locs()})
		case 1:
			p.Instructions = append(p.Instructions, zair.OneQGate{Unitary: [3]float64{r.Float64(), 0, 1e-7}, Locs: locs(), EndTime: r.Float64()})
		case 2:
			p.Instructions = append(p.Instructions, zair.Rydberg{ZoneID: r.Intn(2), BeginTime: 1, EndTime: 2.5})
		default:
			job := zair.RearrangeJob{AODID: r.Intn(2), BeginLocs: [][]zair.QLoc{locs()}, EndLocs: [][]zair.QLoc{}, Insts: []zair.MachineInst{}}
			for k := r.Intn(3); k > 0; k-- {
				job.Insts = append(job.Insts,
					zair.Activate{RowID: ints(), RowY: floats(), ColID: ints(), ColX: floats()},
					zair.Move{RowID: ints(), RowYBegin: floats(), RowYEnd: floats(), ColID: ints(), ColXBegin: floats(), ColXEnd: floats()},
					zair.Deactivate{RowID: ints(), ColID: ints()})
			}
			p.Instructions = append(p.Instructions, job)
		}
	}
	return p
}

// generatedResponse is a compile response around genProgram's program,
// carrying its ZAIR as `zac -out` writes it and the name in its string
// fields.
func generatedResponse(t testing.TB, seed int64, name string) *CompileResponse {
	t.Helper()
	raw, err := json.MarshalIndent(genProgram(rand.New(rand.NewSource(seed)), name), "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return &CompileResponse{Name: name, Setting: name, Compiler: "zac", Moves: int(seed), ZAIR: raw}
}

// reindentNames need escaping or look like layout: newlines, quotes, the
// slot text itself, HTML characters, spaces and non-ASCII.
var reindentNames = []string{
	"bv_n14", "", "line\nbreak\n ", `quote"zair": 0`, "\"zair\": 0\n  \"zair\": 0", "<a&b>",
	"  spaced  out  ", "qübit ψ    \U0001F600", "tab\tslash\\", "\xff\xfebad",
}

// FuzzReindent compares the splicing writer with json.MarshalIndent on
// generated programs wrapped in every response shape.
func FuzzReindent(f *testing.F) {
	for i, name := range reindentNames {
		f.Add(int64(i), name)
	}
	f.Fuzz(func(t *testing.T, seed int64, name string) {
		assertEncodesAsReference(t, fmt.Sprintf("seed %d", seed), generatedResponse(t, seed, name))
	})
}

// The generated corpus runs on every test run, not only under -fuzz.
func TestReindentGeneratedPrograms(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		name := reindentNames[seed%int64(len(reindentNames))]
		assertEncodesAsReference(t, fmt.Sprintf("seed %d", seed), generatedResponse(t, seed, name))
	}
}

// TestResponsesDeclareContentLength checks that JSON and raw ZAIR replies go
// out with a Content-Length, not chunk-framed.
func TestResponsesDeclareContentLength(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	for _, query := range []string{"", "?format=zair", "?zair=0"} {
		resp, err := http.Post(ts.URL+"/v1/compile"+query, "application/json", strings.NewReader(`{"circuit":"ising_n98"}`))
		if err != nil {
			t.Fatal(err)
		}
		var body bytes.Buffer
		body.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || len(resp.TransferEncoding) != 0 || resp.ContentLength != int64(body.Len()) {
			t.Errorf("%q: status %d, transfer-encoding %v, content-length %d for a %d-byte body",
				query, resp.StatusCode, resp.TransferEncoding, resp.ContentLength, body.Len())
		}
	}
}

// BenchmarkServeHit is the handler cost of a cache hit with ZAIR: request
// decode, lookup, response encode, without a network. mem hits the LRU
// front; disk alternates two keys through a one-entry front, so every
// lookup restores from the disk tier.
func BenchmarkServeHit(b *testing.B) {
	bodies := []string{`{"circuit":"ising_n98"}`, `{"circuit":"qft_n18"}`}
	for _, tc := range []struct {
		name       string
		memEntries int
		disk       bool
	}{{"mem", 0, false}, {"disk", 1, true}} {
		b.Run(tc.name, func(b *testing.B) {
			opts := Options{MemEntries: tc.memEntries}
			if tc.disk {
				d, err := engine.OpenDiskCache(b.TempDir(), 0)
				if err != nil {
					b.Fatal(err)
				}
				opts.Disk = d
			}
			s := New(opts)
			h := s.Handler()
			serveOnce := func(body string) {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/compile", strings.NewReader(body)))
				if rec.Code != http.StatusOK {
					b.Fatalf("status %d: %s", rec.Code, rec.Body)
				}
			}
			for _, body := range bodies {
				serveOnce(body)
			}
			before := s.CacheStats()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				serveOnce(bodies[i%len(bodies)])
			}
			b.StopTimer()
			after := s.CacheStats()
			hits := after.MemHits - before.MemHits
			if tc.disk {
				hits = after.DiskHits - before.DiskHits
			}
			if after.Misses != before.Misses || hits != uint64(b.N) {
				b.Fatalf("%d of %d lookups hit the %s tier (misses %d → %d)", hits, b.N, tc.name, before.Misses, after.Misses)
			}
		})
	}
}
