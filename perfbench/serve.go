package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"zac/internal/arch"
	"zac/internal/bench"
	"zac/internal/core"
	"zac/internal/engine"
	"zac/internal/serve"
)

// Traffic shape of serve-zipf.
const (
	zipfS        = 1.1  // Zipf exponent over key ranks
	newSpecShare = 0.08 // share of requests for a spec never requested before
	serveClients = 2    // closed-loop keep-alive clients
	memEntries   = 24   // LRU front size: below the key count, so the disk tier serves the cold keys
	hotReplays   = 5    // hottest keys replayed with and without ZAIR in the traced run
	// rankSeed fixes which key holds which Zipf rank. It is not the
	// workload seed: a hot key that needs a 20 ms encode instead of a 1 ms
	// one would change the cost mix, and with it every latency, from seed to
	// seed.
	rankSeed = 1
)

// newSpecShapes are the small forge families a never-seen request draws from;
// its seed parameter makes it unique.
var newSpecShapes = []string{"rb:n=8,depth=4", "qaoa:n=12,p=1", "clifford:n=10,gates=120"}

// trafficBlock is the stratum of serve-zipf's request sequence: every block
// of this many consecutive requests holds each key its Zipf share of times
// (largest remainder) and exactly newSpecShare never-seen specs, in an order
// drawn from the workload seed. Sampling each request independently instead
// lets the share of expensive keys, and with it throughput, drift by several
// percent from seed to seed.
const trafficBlock = 500

// serveTraffic is serve-zipf's seeded request sequence. Request i depends on
// (seed, i) alone, so both clients draw from one sequence and the same seed
// always yields the same sequence.
type serveTraffic struct {
	seed    uint64
	rankKey []int   // Zipf rank → key index
	quota   []int16 // one block before shuffling: a key index, or -1-shape for a never-seen spec

	mu     sync.Mutex
	blocks map[uint64][]int16
}

func newServeTraffic(seed int64, keys int) *serveTraffic {
	t := &serveTraffic{seed: uint64(seed), rankKey: rankPerm(keys), blocks: map[uint64][]int16{}}
	fresh := int(math.Round(trafficBlock * newSpecShare))
	for j := 0; j < fresh; j++ {
		t.quota = append(t.quota, int16(-1-j%len(newSpecShapes)))
	}
	for r, n := range zipfCounts(keys, trafficBlock-fresh) {
		for ; n > 0; n-- {
			t.quota = append(t.quota, int16(t.rankKey[r]))
		}
	}
	return t
}

// zipfCounts splits total draws over ranks 1..keys in proportion to
// rank^-zipfS, rounding by largest remainder.
func zipfCounts(keys, total int) []int {
	w := make([]float64, keys)
	sum := 0.0
	for r := range w {
		w[r] = math.Pow(float64(r+1), -zipfS)
		sum += w[r]
	}
	counts := make([]int, keys)
	byRemainder := make([]int, keys)
	left := total
	for r := range w {
		exact := w[r] / sum * float64(total)
		counts[r] = int(exact)
		w[r] = exact - float64(counts[r])
		left -= counts[r]
		byRemainder[r] = r
	}
	sort.SliceStable(byRemainder, func(a, b int) bool { return w[byRemainder[a]] > w[byRemainder[b]] })
	for _, r := range byRemainder[:left] {
		counts[r]++
	}
	return counts
}

// rankPerm is the fixed key order by Zipf rank.
func rankPerm(keys int) []int {
	perm := make([]int, keys)
	for i := range perm {
		perm[i] = i
	}
	shuffle(perm, rankSeed)
	return perm
}

// shuffle permutes xs by Fisher–Yates over a SplitMix64 stream.
func shuffle[T any](xs []T, seed uint64) {
	x := seed
	for i := len(xs) - 1; i > 0; i-- {
		x = splitmix64(x)
		j := int(x % uint64(i+1))
		xs[i], xs[j] = xs[j], xs[i]
	}
}

// splitmix64 is one step of the SplitMix64 generator.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (t *serveTraffic) block(b uint64) []int16 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if blk, ok := t.blocks[b]; ok {
		return blk
	}
	blk := append([]int16(nil), t.quota...)
	shuffle(blk, splitmix64(t.seed)^splitmix64(b+1))
	t.blocks[b] = blk
	return blk
}

// request returns request i: a key index, or -1 and a never-seen spec.
func (t *serveTraffic) request(i uint64) (int, string) {
	e := t.block(i / trafficBlock)[i%trafficBlock]
	if e >= 0 {
		return int(e), ""
	}
	// Distinct positions give distinct seeds, beyond every key's.
	return -1, fmt.Sprintf("%s,seed=%d", newSpecShapes[-1-e], 1<<32+i)
}

// serveKeys are serve-zipf's known keys: the 17 paper circuits plus small
// forge specs, compiled at set-up on the CLI path for their expected bytes.
func serveKeys() []compileInput {
	var keys []compileInput
	for _, b := range bench.All() {
		keys = append(keys, compileInput{name: b.Name, bench: &b})
	}
	for _, s := range serveForgeKeys {
		keys = append(keys, compileInput{name: s})
	}
	return keys
}

// serveWorkload drives serve.Handler over loopback HTTP in this process.
type serveWorkload struct {
	keys    *compileWorkload // the known keys, compiled on the CLI path
	traffic *serveTraffic
	digests [][sha256.Size]byte // per key: compacted ZAIR digest
	bodies  [][]byte            // per key: request body

	srv     *serve.Server
	httpSrv *http.Server
	served  chan struct{} // closed when httpSrv.Serve returns
	dir     string        // disk tier
	base    string        // http://127.0.0.1:port
	client  *http.Client
	next    atomic.Uint64 // next request position

	tracing   atomic.Bool
	handlerNS atomic.Int64 // server-side handler time while tracing
	handled   atomic.Int64

	ref *arch.Architecture // resolves the traps of never-seen specs' ZAIR
}

func newServeZipf(seed int64) (*serveWorkload, error) {
	keys, err := newCompileWorkload(seed, true, false)
	if err != nil {
		return nil, err
	}
	keys.inputs = serveKeys()
	w := &serveWorkload{keys: keys, traffic: newServeTraffic(seed, len(keys.inputs)), ref: arch.Reference()}
	for _, in := range keys.inputs {
		req := serve.CompileRequest{Circuit: in.name}
		if in.bench == nil {
			req = serve.CompileRequest{Workload: in.name}
		}
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		w.bodies = append(w.bodies, body)
	}
	return w, nil
}

// start boots a fresh server with an empty disk tier under dir.
func (w *serveWorkload) start(dir string) error {
	disk, err := engine.OpenDiskCache(dir, 0)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.dir = dir
	w.srv = serve.New(serve.Options{MemEntries: memEntries, Disk: disk})
	h := w.srv.Handler()
	w.httpSrv = &http.Server{Handler: http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if !w.tracing.Load() {
			h.ServeHTTP(rw, r)
			return
		}
		t0 := time.Now()
		h.ServeHTTP(rw, r)
		w.handlerNS.Add(int64(time.Since(t0)))
		w.handled.Add(1)
	})}
	w.served = make(chan struct{})
	go func() {
		defer close(w.served)
		w.httpSrv.Serve(ln)
	}()
	w.base = "http://" + ln.Addr().String()
	w.client = &http.Client{Timeout: time.Minute, Transport: &http.Transport{
		MaxIdleConnsPerHost: serveClients, DisableCompression: true}}
	return nil
}

// stop shuts the server down, waits for it, and removes its disk tier.
func (w *serveWorkload) stop() error {
	if w.httpSrv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := w.httpSrv.Shutdown(ctx)
	<-w.served
	w.client.CloseIdleConnections()
	w.httpSrv = nil
	return errors.Join(err, os.RemoveAll(w.dir))
}

// post sends one compile request and reads the whole reply.
func (w *serveWorkload) post(query string, body []byte) (int, []byte, error) {
	resp, err := w.client.Post(w.base+"/v1/compile"+query, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// checkReply checks one compile reply: status 200, a decodable body, and —
// for a known key — the expected program, compared by the digest of its
// compacted ZAIR. want is nil for a never-seen spec, whose ZAIR the caller
// verifies; withZAIR is false for ?zair=0 requests.
func checkReply(status int, body []byte, want *expected, digest *[sha256.Size]byte, withZAIR bool) (*serve.CompileResponse, error) {
	if status != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body))
	}
	var r serve.CompileResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, fmt.Errorf("decoding reply: %w", err)
	}
	if withZAIR && len(r.ZAIR) == 0 {
		return nil, fmt.Errorf("%s: reply carries no ZAIR", r.Name)
	}
	if want == nil {
		return &r, nil
	}
	if r.Moves != want.moves || r.RearrangeJobs != want.jobs || r.Fidelity.Total != want.fidelity || r.DurationUS != want.duration {
		return nil, fmt.Errorf("%s: reply's moves/jobs/fidelity/duration differ from the CLI path's", want.name)
	}
	if withZAIR {
		got, err := compactDigest(r.ZAIR)
		if err != nil {
			return nil, fmt.Errorf("%s: ZAIR: %w", want.name, err)
		}
		if got != *digest {
			return nil, fmt.Errorf("%s: ZAIR differs from the CLI path's", want.name)
		}
	}
	return &r, nil
}

// setupOnce is one set-up: the known keys are compiled on the CLI path for
// their expected bytes, a fresh server starts, and every key is requested
// once, which fills the disk tier and the LRU front. The paper circuits are
// then fetched with ?format=zair, which must be byte-identical to the CLI
// path.
func (w *serveWorkload) setupOnce(ctx context.Context, dir string) ([]expected, []*core.Result, error) {
	exps, results, err := w.keys.setupOnce(ctx)
	if err != nil {
		return nil, nil, err
	}
	digests, err := compactDigests(results)
	if err != nil {
		return nil, nil, err
	}
	w.digests = digests
	if err := w.start(dir); err != nil {
		return nil, nil, err
	}
	for i := range w.keys.inputs {
		status, body, err := w.post("", w.bodies[i])
		if err == nil {
			_, err = checkReply(status, body, &exps[i], &digests[i], true)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("prefill %s: %w", exps[i].name, err)
		}
	}
	for i, in := range w.keys.inputs {
		if in.bench == nil {
			continue
		}
		status, body, err := w.post("?format=zair", w.bodies[i])
		if err != nil {
			return nil, nil, err
		}
		if status != http.StatusOK || sha256.Sum256(body) != exps[i].digest {
			return nil, nil, fmt.Errorf("%s: ?format=zair bytes differ from the CLI path's (status %d)", in.name, status)
		}
	}
	return exps, results, nil
}

// compactDigests hashes each result's ZAIR in compact JSON, the form
// checkReply compares a reply's ZAIR in.
func compactDigests(results []*core.Result) ([][sha256.Size]byte, error) {
	digests := make([][sha256.Size]byte, len(results))
	for i, res := range results {
		raw, err := json.Marshal(res.Program) // json.Marshal output is compact
		if err != nil {
			return nil, err
		}
		digests[i] = sha256.Sum256(raw)
	}
	return digests, nil
}

// setup runs setupOnce reps times, timing each; the last rep's server stays
// up for the timed windows. dirBase holds the disk tiers.
func (w *serveWorkload) setup(ctx context.Context, reps int, dirBase string) ([]float64, error) {
	rep := 0
	times, exps, results, err := repeatSetup(reps, func() ([]expected, []*core.Result, error) {
		if err := w.stop(); err != nil {
			return nil, nil, err
		}
		rep++
		dir, err := os.MkdirTemp(dirBase, fmt.Sprintf("serve-%d-", rep))
		if err != nil {
			return nil, nil, err
		}
		return w.setupOnce(ctx, dir)
	})
	if err != nil {
		return nil, err
	}
	return times, w.keys.checkOutputs(exps, results)
}

// reply is what one checked request reports.
type reply struct {
	lat    time.Duration
	bytes  int
	cached bool // the server answered from its cache
	resp   *serve.CompileResponse
}

// do sends request position i and checks the reply. A never-seen
// spec has no expected bytes; its ZAIR goes through the hardware verifier
// and the move replay instead.
func (w *serveWorkload) do(i uint64) (reply, error) {
	key, spec := w.traffic.request(i)
	var body []byte
	var want *expected
	var digest *[sha256.Size]byte
	if key >= 0 {
		body, want, digest = w.bodies[key], &w.keys.inputs[key].exp, &w.digests[key]
	} else {
		var err error
		if body, err = json.Marshal(serve.CompileRequest{Workload: spec}); err != nil {
			return reply{}, err
		}
	}
	t0 := time.Now()
	status, data, err := w.post("", body)
	lat := time.Since(t0)
	if err != nil {
		return reply{}, err
	}
	r, err := checkReply(status, data, want, digest, true)
	if err != nil {
		return reply{}, err
	}
	if key < 0 {
		if err := checkZAIRBytes(r.ZAIR, w.ref, r.Moves); err != nil {
			return reply{}, fmt.Errorf("%s: %w", spec, err)
		}
	}
	return reply{lat: lat, bytes: len(data), cached: r.Cached, resp: r}, nil
}

// serveWindow is one timed window of serve traffic.
type serveWindow struct {
	*window
	hitMS, missMS []float64
}

// loop runs the closed-loop clients until seconds have passed: each sends
// its next request only after reading and checking the previous reply.
func (w *serveWorkload) loop(seconds float64) (*serveWindow, error) {
	sw := &serveWindow{window: &window{}}
	type clientTally struct {
		lat, hit, miss []float64
		attempted      int
		failed         int
		out            int64
		q              quality
		err            error
	}
	tallies := make([]clientTally, serveClients)
	runtime.GC() // start every window with the set-up's garbage collected
	sw.start = snapshot()
	deadline := sw.start.wall.Add(time.Duration(seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for c := range tallies {
		wg.Add(1)
		go func(t *clientTally) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				r, err := w.do(w.next.Add(1) - 1)
				t.attempted++
				if err != nil {
					t.failed++
					if t.err == nil {
						t.err = err
					}
					continue
				}
				lat := ms(r.lat)
				t.lat = append(t.lat, lat)
				if r.cached {
					t.hit = append(t.hit, lat)
				} else {
					t.miss = append(t.miss, lat)
				}
				t.out += int64(r.bytes)
				t.q.add(r.resp.Fidelity.Total, r.resp.DurationUS)
			}
		}(&tallies[c])
	}
	wg.Wait()
	sw.end = snapshot()
	var firstErr error
	for _, t := range tallies {
		sw.latMS = append(sw.latMS, t.lat...)
		sw.hitMS = append(sw.hitMS, t.hit...)
		sw.missMS = append(sw.missMS, t.miss...)
		sw.attempted += t.attempted
		sw.failed += t.failed
		sw.outBytes += t.out
		sw.quality.merge(t.q)
		if firstErr == nil {
			firstErr = t.err
		}
	}
	return sw, firstErr
}

// metricsSnapshot fetches GET /metrics.
func (w *serveWorkload) metricsSnapshot() (serve.MetricsResponse, error) {
	var m serve.MetricsResponse
	resp, err := w.client.Get(w.base + "/metrics")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return m, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	return m, json.NewDecoder(resp.Body).Decode(&m)
}

// hotReplay requests each of the hottest keys once with ?zair=0 and once
// with ZAIR, returning the median latency of each kind.
func (w *serveWorkload) hotReplay() (noZAIR, withZAIR float64, err error) {
	var no, with []float64
	for r := 0; r < hotReplays && r < len(w.traffic.rankKey); r++ {
		k := w.traffic.rankKey[r]
		for _, q := range []string{"?zair=0", ""} {
			t0 := time.Now()
			status, data, err := w.post(q, w.bodies[k])
			lat := ms(time.Since(t0))
			if err != nil {
				return 0, 0, err
			}
			if _, err := checkReply(status, data, &w.keys.inputs[k].exp, &w.digests[k], q == ""); err != nil {
				return 0, 0, err
			}
			if q == "" {
				with = append(with, lat)
			} else {
				no = append(no, lat)
			}
		}
	}
	return median(no), median(with), nil
}

// tracedRun is serve-zipf's traced run: an untraced window, then a traced
// one that times the server's handler and is bracketed by snapshots of the
// cache counters and of GET /metrics, then the hot-key replays. Every
// per-layer metric is a delta or a mean over the traced window.
func (w *serveWorkload) tracedRun(seconds float64, log io.Writer) *result {
	un, err := w.loop(seconds / 2)
	logFailure(log, err)
	c0 := w.srv.CacheStats()
	m0, err0 := w.metricsSnapshot()
	w.tracing.Store(true)
	tw, err := w.loop(seconds / 2)
	logFailure(log, err)
	w.tracing.Store(false)
	c1 := w.srv.CacheStats()
	m1, err1 := w.metricsSnapshot()
	noZAIR, withZAIR, err2 := w.hotReplay()

	res := &result{Attempted: un.attempted + tw.attempted, Failed: un.failed + tw.failed}
	for _, err := range []error{err0, err1, err2} {
		if err != nil {
			logFailure(log, err)
			res.Attempted++
			res.Failed++
		}
	}
	res.Correct = res.Failed == 0

	m := zeroLayerMetrics()
	res.Metrics = m
	n := float64(tw.ok())
	if n == 0 {
		return res
	}
	handlerMS := 0.0
	if h := w.handled.Load(); h > 0 {
		handlerMS = float64(w.handlerNS.Load()) / 1e6 / float64(h)
	}
	meanMS := 0.0
	for _, x := range tw.latMS {
		meanMS += x / n
	}
	m["engine.mem_hits"] = metric{float64(c1.MemHits - c0.MemHits), "count"}
	m["engine.disk_hits"] = metric{float64(c1.DiskHits - c0.DiskHits), "count"}
	m["engine.misses"] = metric{float64(c1.Misses - c0.Misses), "count"}
	if lookups := c1.Lookups() - c0.Lookups(); lookups > 0 {
		m["engine.hit_ratio"] = metric{float64(c1.Hits()-c0.Hits()) / float64(lookups), "1"}
	}
	m["engine.disk_retries"] = metric{float64(m1.Cache.DiskRetries - m0.Cache.DiskRetries), "count"}
	m["engine.disk_failures"] = metric{float64(m1.Cache.DiskFailures - m0.Cache.DiskFailures), "count"}
	m["serve.shed"] = metric{float64(m1.Admission.Shed - m0.Admission.Shed), "count"}
	m["serve.deadline_misses"] = metric{float64(m1.Admission.DeadlineExceeded - m0.Admission.DeadlineExceeded), "count"}
	m["serve.handler_ms"] = metric{handlerMS, "ms"}
	m["serve.hit_p50_ms"] = metric{median(tw.hitMS), "ms"}
	m["serve.miss_p50_ms"] = metric{median(tw.missMS), "ms"}
	m["serve.hit_nozair_ms"] = metric{noZAIR, "ms"}
	m["serve.hit_zair_ms"] = metric{withZAIR, "ms"}
	m["serve.response_kb"] = metric{float64(tw.outBytes) / 1024 / n, "KiB"}
	m["op.unattributed_ms"] = metric{meanMS - handlerMS, "ms"}
	m["trace.overhead_ms"] = metric{median(tw.latMS) - median(un.latMS), "ms"}
	m["trace.ops"] = metric{n, "count"}
	return res
}
