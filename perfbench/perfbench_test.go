package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"zac/internal/arch"
	"zac/internal/serve"
	"zac/internal/workload"
	"zac/internal/zair"
)

func TestTailPerMille(t *testing.T) {
	for _, tc := range []struct{ n, want int }{
		{0, 0}, {19, 0}, {20, 500}, {39, 500}, {40, 750}, {99, 750}, {100, 900},
		{199, 900}, {200, 950}, {500, 980}, {999, 980}, {1000, 990}, {2000, 995},
		{4999, 995}, {5000, 998}, {10000, 999}, {1 << 20, 999},
	} {
		if got := tailPerMille(tc.n); got != tc.want {
			t.Errorf("tailPerMille(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, tc := range []struct{ p, want float64 }{{0, 1}, {50, 3}, {75, 4}, {90, 4.6}, {100, 5}} {
		if got := percentile(xs, tc.p); abs(got-tc.want) > 1e-12 {
			t.Errorf("percentile(%g) = %g, want %g", tc.p, got, tc.want)
		}
	}
	var q quality
	for _, x := range []float64{1, 4, 16} {
		q.add(x, 2*x)
	}
	if abs(q.fidelity()-4) > 1e-12 || abs(q.durationUS()-8) > 1e-12 {
		t.Errorf("geomeans %g, %g; want 4, 8", q.fidelity(), q.durationUS())
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// benchmarkFile mirrors the repository's BENCHMARK.json.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

// TestBenchmarkFileMatchesCode keeps BENCHMARK.json and the program in step:
// the same workloads with the tail percentile each fixes, and the same
// metrics with the same units.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
		pm, ok := tailPM[w.Name]
		if !ok {
			t.Errorf("workload %s is unknown to the program", w.Name)
			continue
		}
		if tag := fmt.Sprintf("tail p%g", float64(pm)/10); !strings.Contains(w.Why, tag) {
			t.Errorf("workload %s: why does not state %q", w.Name, tag)
		}
	}
	if len(names) != len(tailPM) {
		t.Errorf("BENCHMARK.json names %v, the program knows %d workloads", names, len(tailPM))
	}
	win := &window{start: snapshot(), end: snapshot()}
	want := endToEnd(win, 500, 1)
	if len(bf.EndToEnd) != len(want) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, the program reports %d", len(bf.EndToEnd), len(want))
	}
	for _, m := range bf.EndToEnd {
		if got, ok := want[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end %s [%s]: program reports %+v", m.Name, m.Unit, got)
		}
	}
	layers := zeroLayerMetrics()
	if len(bf.PerLayer) != len(layers) {
		t.Errorf("BENCHMARK.json has %d per-layer metrics, the program reports %d", len(bf.PerLayer), len(layers))
	}
	for _, m := range bf.PerLayer {
		if got, ok := layers[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("per-layer %s [%s]: program reports %+v", m.Name, m.Unit, got)
		}
	}
}

func TestTrafficIsSeeded(t *testing.T) {
	const n = 20000
	seq := func(seed int64) []string {
		tr := newServeTraffic(seed, len(serveKeys()))
		out := make([]string, n)
		for i := range out {
			k, spec := tr.request(uint64(i))
			out[i] = fmt.Sprint(k, spec)
		}
		return out
	}
	a, b, c := seq(7), seq(7), seq(8)
	if !slices.Equal(a, b) {
		t.Fatal("the same seed gave two request sequences")
	}
	if slices.Equal(a, c) {
		t.Fatal("different seeds gave the same request sequence")
	}

	tr := newServeTraffic(7, len(serveKeys()))
	counts := map[int]int{}
	specs := map[string]bool{}
	for i := 0; i < n; i++ {
		k, spec := tr.request(uint64(i))
		counts[k]++
		if k < 0 {
			if specs[spec] {
				t.Fatalf("never-seen spec %s drawn twice", spec)
			}
			specs[spec] = true
			if _, err := workload.Parse(spec); err != nil {
				t.Fatal(err)
			}
		}
	}
	if share := float64(counts[-1]) / n; share != newSpecShare {
		t.Errorf("never-seen share %.3f, want %.2f", share, newSpecShare)
	}
	hot := tr.rankKey[0]
	for k, c := range counts {
		if k >= 0 && k != hot && c >= counts[hot] {
			t.Errorf("key %d drawn %d times, as often as the rank-1 key (%d)", k, c, counts[hot])
		}
	}
	if !slices.Equal(tr.rankKey, newServeTraffic(8, len(serveKeys())).rankKey) {
		t.Error("Zipf ranks depend on the workload seed")
	}
	// Every block holds the same requests, whatever the seed.
	want := slices.Sorted(slices.Values(tr.quota))
	for _, seed := range []int64{7, 8} {
		other := newServeTraffic(seed, len(serveKeys()))
		for b := uint64(0); b < 3; b++ {
			if got := slices.Sorted(slices.Values(other.block(b))); !slices.Equal(got, want) {
				t.Fatalf("seed %d block %d holds a different mix", seed, b)
			}
		}
	}
	if c := zipfCounts(50, 460); c[0] <= c[1] || c[49] < 1 || sum(c) != 460 {
		t.Errorf("zipfCounts(50, 460) = %v", c)
	}
}

func sum(xs []int) int {
	n := 0
	for _, x := range xs {
		n += x
	}
	return n
}

func TestRoundOrderIsSeeded(t *testing.T) {
	orders := func(seed int64) [][]int {
		w, err := newPaperCompile(seed)
		if err != nil {
			t.Fatal(err)
		}
		var out [][]int
		for r := 0; r < 5; r++ {
			out = append(out, w.order.Perm(len(w.inputs)))
		}
		return out
	}
	a, b, c := orders(3), orders(3), orders(4)
	if !slices.EqualFunc(a, b, slices.Equal) {
		t.Error("the same seed gave two round orders")
	}
	if slices.EqualFunc(a, c, slices.Equal) {
		t.Error("different seeds gave the same round orders")
	}
}

func TestCompileLoopCountsFailures(t *testing.T) {
	w := &compileWorkload{inputs: []compileInput{{name: "good"}, {name: "bad"}}}
	w.order = rand.New(rand.NewSource(1))
	win, err := w.loop(0.05, func(in *compileInput) (time.Duration, int, error) {
		if in.name == "bad" {
			return 0, 0, errors.New("injected")
		}
		return time.Millisecond, 10, nil
	})
	if err == nil || win.failed == 0 || win.failed*2 != win.attempted || len(win.latMS) != win.ok() {
		t.Fatalf("attempted %d failed %d samples %d err %v", win.attempted, win.failed, len(win.latMS), err)
	}
}

// setUpPaper returns paper-compile set up once, for tests that need real
// expected outputs.
func setUpPaper(t *testing.T) *compileWorkload {
	t.Helper()
	w, err := newPaperCompile(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.setup(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	return w
}

func TestDecomposedPathMatchesRegistry(t *testing.T) {
	w := setUpPaper(t)
	tr := &compileTrace{compared: map[string]bool{}}
	op := w.tracedOp(context.Background(), tr)
	for i := range w.inputs {
		if _, _, err := op(&w.inputs[i]); err != nil {
			t.Fatal(err)
		}
	}
	m := tr.perLayer(1)
	for _, name := range []string{"place.plan_ms", "schedule.build_ms", "zair.encode_ms", "arch.topology_ms"} {
		if m[name].Value <= 0 {
			t.Errorf("%s = %g, want > 0", name, m[name].Value)
		}
	}
	in := w.inputs[0]
	in.exp.digest[0] ^= 1
	if _, _, err := op(&in); err == nil {
		t.Error("decomposed bytes that differ from the registry's passed")
	}
}

func TestCheckProgramCatchesBadOutput(t *testing.T) {
	w := setUpPaper(t)
	res, data, err := w.op(context.Background(), &w.inputs[0])
	if err != nil {
		t.Fatal(err)
	}
	a := arch.Reference()
	if err := checkZAIRBytes(data, a, res.TotalMoves); err != nil {
		t.Fatal(err)
	}
	if err := checkZAIRBytes(data, a, res.TotalMoves+1); err == nil {
		t.Error("a wrong move count passed")
	}
	if err := checkZAIRBytes(data[:len(data)/2], a, res.TotalMoves); err == nil {
		t.Error("truncated ZAIR passed")
	}
}

// fakeServeWorkload points a serve-zipf client at handler, with known keys
// set up for real.
func fakeServeWorkload(t *testing.T, handler http.HandlerFunc) *serveWorkload {
	t.Helper()
	w, err := newServeZipf(1)
	if err != nil {
		t.Fatal(err)
	}
	exps, results, err := w.keys.setupOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.keys.checkOutputs(exps, results); err != nil {
		t.Fatal(err)
	}
	if w.digests, err = compactDigests(results); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(handler)
	t.Cleanup(srv.Close)
	w.base, w.client = srv.URL, srv.Client()
	return w
}

func TestServeFailuresAreCounted(t *testing.T) {
	for _, tc := range []struct {
		name    string
		handler http.HandlerFunc
	}{
		{"status 500", func(rw http.ResponseWriter, r *http.Request) { http.Error(rw, "boom", 500) }},
		{"status 429", func(rw http.ResponseWriter, r *http.Request) { http.Error(rw, "shed", 429) }},
		{"status 504", func(rw http.ResponseWriter, r *http.Request) { http.Error(rw, "late", 504) }},
		{"garbage body", func(rw http.ResponseWriter, r *http.Request) { rw.Write([]byte("{")) }},
		{"wrong program", func(rw http.ResponseWriter, r *http.Request) {
			json.NewEncoder(rw).Encode(serve.CompileResponse{Name: "x", Moves: 1, ZAIR: json.RawMessage(`{"name":"x"}`)})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := fakeServeWorkload(t, tc.handler)
			win, err := w.loop(0.1)
			if err == nil || win.attempted == 0 || win.failed != win.attempted || len(win.latMS) != 0 {
				t.Fatalf("attempted %d failed %d samples %d err %v", win.attempted, win.failed, len(win.latMS), err)
			}
		})
	}
}

// TestInvalidZAIRForNeverSeenSpecFails serves a decodable program that the
// hardware verifier rejects for a spec with no expected bytes.
func TestInvalidZAIRForNeverSeenSpecFails(t *testing.T) {
	// Two qubits in one trap.
	bad, err := json.Marshal(&zair.Program{Name: "x", NumQubits: 2, Instructions: []zair.Instruction{
		zair.Init{Locs: []zair.QLoc{{Q: 0}, {Q: 1}}}}})
	if err != nil {
		t.Fatal(err)
	}
	w := fakeServeWorkload(t, func(rw http.ResponseWriter, r *http.Request) {
		json.NewEncoder(rw).Encode(serve.CompileResponse{Name: "x", ZAIR: bad})
	})
	var i uint64
	for ; ; i++ {
		if k, _ := w.traffic.request(i); k < 0 {
			break
		}
	}
	if _, err := w.do(i); err == nil || !strings.Contains(err.Error(), "same trap") {
		t.Fatalf("do = %v, want the verifier's rejection", err)
	}
}

// TestRunPrintsResultLine runs the one command briefly on each workload and
// checks the contract of its output.
func TestRunPrintsResultLine(t *testing.T) {
	if testing.Short() {
		t.Skip("sets up every workload")
	}
	t.Chdir(t.TempDir())
	for _, name := range []string{paperCompile, forgeScale, serveZipf} {
		for _, trace := range []string{"0", "1"} {
			var out, log bytes.Buffer
			code := run([]string{"--workload", name, "--seed", "2", "--seconds", "0.4", "--trace", trace}, &out, &log)
			if code != 0 {
				t.Fatalf("%s trace %s: exit %d\n%s", name, trace, code, log.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatal(err)
			}
			want := len(zeroLayerMetrics())
			if trace == "0" {
				want = len(endToEnd(&window{}, 500, 0))
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 || len(res.Metrics) != want {
				t.Errorf("%s trace %s: %+v\n%s", name, trace, res, log.String())
			}
		}
	}
}
