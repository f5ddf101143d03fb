// Package serve implements the zac-serve HTTP API: a long-running
// compilation service that accepts OpenQASM programs (or built-in benchmark
// names) plus JSON architecture specs, compiles them through the compiler
// registry — ZAC's ablation presets, the neutral-atom baselines, and the
// superconducting routers all resolve by name — with bounded concurrency,
// and returns the ZAIR program plus the paper's fidelity breakdown as JSON.
// Results flow through the engine's tiered cache (LRU memory front,
// optional content-addressed disk back tier), so identical requests are
// served from cache — across restarts when a cache directory is attached —
// and the emitted ZAIR is byte-identical to the `zac -out` CLI encoding.
// Entries are keyed by compiler.Key, the one compile identity every cache
// shares.
//
// Request contexts propagate into the pass pipeline: when a client
// disconnects mid-compile, the compilation stops at the next pass or stage
// boundary instead of running to completion, and async jobs are cancellable
// via DELETE /v1/jobs/{id}.
//
// Endpoints:
//
//	POST   /v1/compile     single or batch compilation (async via "async":true);
//	                       ?compiler= selects a registry compiler for the request
//	GET    /v1/jobs/{id}   poll an async job
//	DELETE /v1/jobs/{id}   cancel an async job
//	GET    /healthz        liveness probe
//	GET    /readyz         readiness probe: 503 while draining for shutdown
//	GET    /metrics        cache hit rates by tier, in-flight compiles,
//	                       per-compiler and per-pass latency,
//	                       admission queue/shed counters, disk breaker state
//
// The service is built to degrade rather than collapse: compilations that
// would exceed the bounded admission queue are shed with 429 + Retry-After,
// each request can carry its own deadline ("timeout_ms"), accepted async
// jobs are journaled to the cache directory and replayed after a crash, and
// persistent disk-tier failures trip a circuit breaker that drops the cache
// to memory-only until the disk recovers.
package serve

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"zac/internal/arch"
	"zac/internal/bench"
	"zac/internal/circuit"
	"zac/internal/compiler"
	"zac/internal/core"
	"zac/internal/engine"
	"zac/internal/qasm"
	"zac/internal/resynth"
	"zac/internal/telemetry"
	"zac/internal/workload"
)

// Options configures a Server. The zero value is serviceable: all-CPU
// compile concurrency, an unbounded in-memory cache, no disk tier.
type Options struct {
	// Parallel bounds the number of concurrently executing compilations
	// (not HTTP requests); ≤ 0 selects runtime.NumCPU().
	Parallel int
	// MemEntries caps the cache's LRU memory front (≤ 0 = unbounded).
	MemEntries int
	// Disk, when non-nil, attaches a persistent cache tier shared with
	// zac-bench and zairsim.
	Disk *engine.DiskCache
	// MaxBatch caps the requests accepted in one batch (default 64).
	MaxBatch int
	// MaxBodyBytes caps the request body size (default 8 MiB).
	MaxBodyBytes int64
	// QueueDepth bounds the admission queue: the number of compilations
	// allowed to wait for a compile slot beyond the ones running. A request
	// arriving with the queue full is shed immediately with 429 and a
	// Retry-After header instead of queueing unboundedly (default 64).
	QueueDepth int
	// RetryAfter is the hint returned in the Retry-After header of 429/503
	// responses (default 1s; rounded up to whole seconds on the wire).
	RetryAfter time.Duration
	// Telemetry, when non-nil, records one span trace per compile request,
	// served at GET /v1/traces and echoed as trace_id in responses. Nil
	// disables tracing entirely (requests pay one nil check).
	Telemetry *telemetry.Recorder
	// Logger receives structured request-completion logs (one line per
	// compile with trace_id, compiler, cache tier, status, duration). Nil
	// discards logs, keeping tests and embedders quiet.
	Logger *slog.Logger
}

// ErrOverloaded is the admission controller's rejection: every compile slot
// is busy and the waiting queue is at QueueDepth. It maps to HTTP 429 with
// a Retry-After header and is never memoized by the cache.
var ErrOverloaded = errors.New("server overloaded: compile admission queue is full")

// ErrDraining rejects new compilations while the server drains for
// shutdown. It maps to HTTP 503 with a Retry-After header.
var ErrDraining = errors.New("server is draining")

// Server is the zac-serve request handler: a tiered compilation cache, a
// compile-concurrency semaphore, the async job table, and service counters.
type Server struct {
	opts      Options
	cache     *engine.Tiered
	sem       chan struct{}
	telemetry *telemetry.Recorder // nil when tracing is disabled
	log       *slog.Logger

	requests atomic.Uint64
	compiles atomic.Uint64
	inflight atomic.Int64

	waiting      atomic.Int64  // compilations queued for a compile slot
	shed         atomic.Uint64 // requests rejected 429 by admission
	deadlines    atomic.Uint64 // requests that missed their timeout_ms
	draining     atomic.Bool   // shutdown in progress: /readyz 503, compiles refused
	jobsReplayed atomic.Uint64 // jobs re-run from the crash journal

	journal *jobJournal    // nil without OpenJournal
	jobWG   sync.WaitGroup // running async jobs, waited on by Drain

	mu       sync.Mutex
	jobs     map[string]*job
	jobOrder []string // submission order, for retention eviction
	jobSeq   int
	latency  map[string]*latencyAgg // per compiler
	passes   map[string]*latencyAgg // per "compiler/pass"

	archs sync.Map // compiler name → its default *arch.Architecture
}

// latencyAgg accumulates fresh-compilation wall-clock latency per key.
type latencyAgg struct {
	count   uint64
	totalMS float64
	maxMS   float64
}

// New returns a Server ready to have Handler mounted.
func New(opts Options) *Server {
	if opts.MaxBatch <= 0 {
		opts.MaxBatch = 64
	}
	if opts.MaxBodyBytes <= 0 {
		opts.MaxBodyBytes = 8 << 20
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 64
	}
	if opts.RetryAfter <= 0 {
		opts.RetryAfter = time.Second
	}
	cache := engine.NewTiered(opts.MemEntries)
	if opts.Disk != nil {
		cache.SetDisk(opts.Disk)
	}
	logger := opts.Logger
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	return &Server{
		opts:      opts,
		cache:     cache,
		sem:       make(chan struct{}, engine.Workers(opts.Parallel)),
		telemetry: opts.Telemetry,
		log:       logger,
		jobs:      map[string]*job{},
		latency:   map[string]*latencyAgg{},
		passes:    map[string]*latencyAgg{},
	}
}

// Handler returns the service's HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("POST /v1/compile", s.handleCompile)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	mux.HandleFunc("GET /v1/traces", s.handleTraces)
	mux.HandleFunc("GET /v1/traces/{id}", s.handleTrace)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.requests.Add(1)
		mux.ServeHTTP(w, r)
	})
}

// handleHealthz reports liveness.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz reports readiness for traffic: 200 while serving, 503 once a
// drain has begun — the signal load balancers and orchestrators use to stop
// routing to an instance that is shutting down (the process stays live, so
// /healthz keeps answering 200 throughout).
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// retryAfterSeconds renders the Retry-After hint, at least one whole second.
func (s *Server) retryAfterSeconds() string {
	secs := int((s.opts.RetryAfter + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return fmt.Sprintf("%d", secs)
}

// StartDrain flips the server into draining mode: /readyz answers 503 and
// new compile submissions are refused with 503 + Retry-After. In-flight
// work is unaffected; use Drain to wait for it.
func (s *Server) StartDrain() { s.draining.Store(true) }

// Drain enters draining mode and waits for every running async job to
// finish, up to the context's deadline. Jobs still unfinished when the
// deadline fires stay recorded in the journal, so the next start replays
// them — an accepted job is never silently lost. Synchronous requests are
// the HTTP server's to drain (http.Server.Shutdown waits for handlers).
func (s *Server) Drain(ctx context.Context) error {
	s.StartDrain()
	done := make(chan struct{})
	go func() {
		s.jobWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// handleCompile serves POST /v1/compile: a bare CompileRequest or a batch,
// synchronous by default, async as a job with "async":true. Query parameter
// compiler=NAME selects a registry compiler for every request that does not
// name its own; zair=0 omits the ZAIR program from responses; format=zair
// (single synchronous requests only) returns the bare ZAIR JSON,
// byte-identical to `zac -out`. The request context is propagated into the
// pipeline, so disconnecting cancels an in-flight compilation.
func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		w.Header().Set("Retry-After", s.retryAfterSeconds())
		writeError(w, http.StatusServiceUnavailable, ErrDraining)
		return
	}
	var req BatchRequest
	body := http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	single := len(req.Requests) == 0
	batch := req.Requests
	if single {
		batch = []CompileRequest{req.CompileRequest}
	}
	if len(batch) > s.opts.MaxBatch {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("batch of %d exceeds the limit of %d", len(batch), s.opts.MaxBatch))
		return
	}
	defaultCompiler := r.URL.Query().Get("compiler")
	includeZAIR := r.URL.Query().Get("zair") != "0"
	rawZAIR := r.URL.Query().Get("format") == "zair"
	if rawZAIR && (!single || req.Async) {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("format=zair requires a single synchronous request"))
		return
	}

	if req.Async {
		j := s.newJob(len(batch))
		// Journal before acknowledging: once the client holds a 202, the
		// job must survive a crash. A job we cannot make durable is not
		// accepted.
		if s.journal != nil {
			entry := journalEntry{ID: j.id, Requests: batch, DefaultCompiler: defaultCompiler, IncludeZAIR: includeZAIR}
			if err := s.journal.record(entry); err != nil {
				s.dropJob(j.id)
				w.Header().Set("Retry-After", s.retryAfterSeconds())
				writeError(w, http.StatusServiceUnavailable, fmt.Errorf("journaling job: %w", err))
				return
			}
		}
		s.startJob(j, batch, defaultCompiler, includeZAIR)
		writeJSON(w, http.StatusAccepted, j.response())
		return
	}

	results := s.compileBatch(r.Context(), batch, defaultCompiler, includeZAIR || rawZAIR)
	if !single {
		writeJSON(w, http.StatusOK, BatchResponse{Results: results})
		return
	}
	item := results[0]
	if item.TraceID != "" {
		w.Header().Set("X-Trace-Id", item.TraceID)
	}
	if item.Error != "" {
		status := item.status
		if status == 0 {
			status = http.StatusBadRequest
		}
		if status == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", s.retryAfterSeconds())
		}
		writeError(w, status, fmt.Errorf("%s", item.Error))
		return
	}
	if rawZAIR {
		writeBody(w, http.StatusOK, item.Result.ZAIR)
		return
	}
	writeJSON(w, http.StatusOK, item.Result)
}

// handleJob serves GET /v1/jobs/{id}.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	j, ok := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, j.response())
}

// compileBatch fans the batch out over the worker pool, one BatchItem per
// request in request order. Errors stay per-item; the batch itself never
// fails.
func (s *Server) compileBatch(ctx context.Context, batch []CompileRequest, defaultCompiler string, includeZAIR bool) []BatchItem {
	items := make([]BatchItem, len(batch))
	var wg sync.WaitGroup
	for i := range batch {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			items[i] = s.compileItem(ctx, batch[i], defaultCompiler, includeZAIR)
		}(i)
	}
	wg.Wait()
	return items
}

// compileItem wraps compileOne into a BatchItem, applying the request's
// timeout_ms deadline and classifying failures into the HTTP status a
// single synchronous request reports (batch items carry the message only).
// It runs on goroutines the service spawned itself — not net/http handler
// goroutines — so a panic anywhere in a compiler would kill the whole
// process; contain it as a per-item error instead. Each item roots one
// telemetry trace (when a recorder is attached) and emits one structured
// request-completion log line.
func (s *Server) compileItem(ctx context.Context, req CompileRequest, defaultCompiler string, includeZAIR bool) (item BatchItem) {
	ctx, root := s.telemetry.StartTrace(ctx, "serve.compile")
	t0 := time.Now()
	var tier engine.Tier
	status := "ok"
	compilerName := ""
	defer func() {
		if r := recover(); r != nil {
			item = BatchItem{Error: fmt.Sprintf("compile panicked: %v", r)}
			status = "panic"
		}
		item.TraceID = root.TraceID()
		if item.Result != nil {
			item.Result.TraceID = root.TraceID()
			compilerName = item.Result.Compiler
		}
		if compilerName == "" {
			compilerName = req.Compiler
		}
		root.Set("status", status)
		root.Set("compiler", compilerName)
		if tier != "" {
			root.Set("tier", string(tier))
		}
		root.End()
		s.log.LogAttrs(context.Background(), slog.LevelInfo, "compile",
			slog.String("trace_id", root.TraceID()),
			slog.String("compiler", compilerName),
			slog.String("tier", string(tier)),
			slog.String("status", status),
			slog.Duration("duration", time.Since(t0)))
	}()
	if req.TimeoutMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMS)*time.Millisecond)
		defer cancel()
	}
	res, itemTier, err := s.compileOne(ctx, req, defaultCompiler, includeZAIR)
	tier = itemTier
	switch {
	case err == nil:
		return BatchItem{Result: res}
	case errors.Is(err, ErrOverloaded):
		status = "shed"
		return BatchItem{Error: err.Error(), status: http.StatusTooManyRequests}
	case req.TimeoutMS > 0 && errors.Is(ctx.Err(), context.DeadlineExceeded) &&
		(errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)):
		// The deadline may surface as Canceled: when the last waiter leaves a
		// shared computation, its context is cancelled rather than deadlined.
		s.deadlines.Add(1)
		status = "deadline"
		return BatchItem{
			Error:  fmt.Sprintf("deadline of %d ms exceeded", req.TimeoutMS),
			status: http.StatusGatewayTimeout,
		}
	default:
		status = "error"
		return BatchItem{Error: err.Error()}
	}
}

// compileOne resolves one request and routes it through the compiler
// registry and the cache hierarchy; only a cache miss occupies a slot of
// the compile semaphore. The context reaches the pass pipeline, so an
// abandoned request stops compiling mid-pass. A cancellation is never
// memoized (the cache drops it), so a later identical request recompiles.
// The returned Tier reports where the cache lookup resolved ("" when the
// request failed before reaching the cache).
func (s *Server) compileOne(ctx context.Context, req CompileRequest, defaultCompiler string, includeZAIR bool) (*CompileResponse, engine.Tier, error) {
	c, setting, err := resolveCompiler(req, defaultCompiler)
	if err != nil {
		return nil, "", err
	}
	buildCirc, circKey, err := resolveCircuit(req)
	if err != nil {
		return nil, "", err
	}
	a, err := s.resolveArch(req, c)
	if err != nil {
		return nil, "", err
	}
	if req.SARestarts < 0 {
		return nil, "", fmt.Errorf("sa_restarts must be non-negative, got %d", req.SARestarts)
	}
	if req.Workers < 0 {
		return nil, "", fmt.Errorf("workers must be non-negative, got %d", req.Workers)
	}

	opts := compiler.Options{SARestarts: req.SARestarts, Workers: s.compileWorkers(req.Workers)}
	key := entryKey(c, opts, circKey, a)
	// DoCtxTier gives the computation a context cancelled only when every
	// request sharing it has disconnected, so one client abandoning a
	// compile never fails an identical concurrent request.
	e, tier, err := engine.GetTieredCtxTier(s.cache, ctx, key, entryCodec, func(ctx context.Context) (*entry, error) {
		ctx, adm := telemetry.Start(ctx, "admission")
		queued, err := s.admit(ctx)
		adm.SetBool("queued", queued)
		adm.End()
		if err != nil {
			return nil, err
		}
		defer func() { <-s.sem }()
		s.inflight.Add(1)
		defer s.inflight.Add(-1)
		circ, err := buildCirc()
		if err != nil {
			return nil, err
		}
		staged, err := stagedInput(c, circ)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		r, err := c.Compile(ctx, staged, a, opts)
		if err != nil {
			return nil, err
		}
		s.recordLatency(c.Name(), time.Since(t0))
		s.recordPasses(c.Name(), r.Passes)
		return newEntry(r)
	})
	s.compiles.Add(1)
	if err != nil {
		return nil, tier, err
	}
	return e.response(c.Name(), setting, tier != engine.TierCompute, includeZAIR), tier, nil
}

// compileWorkers resolves one compilation's intra-compile worker budget from
// the request value (already validated non-negative). The default gives each
// admission slot an equal share of the cores, so compile slots ×
// per-compile workers ≈ NumCPU and a saturated server never oversubscribes;
// an explicit request value is honored but clamped to the machine. The
// budget never changes compiled bytes, only speed.
func (s *Server) compileWorkers(requested int) int {
	cores := engine.Workers(0)
	if requested > 0 {
		if requested > cores {
			return cores
		}
		return requested
	}
	w := cores / cap(s.sem)
	if w < 1 {
		w = 1
	}
	return w
}

// admit acquires a compile slot through the bounded admission queue: a free
// slot is taken immediately; otherwise the caller waits in the queue unless
// it is already at QueueDepth, in which case the request is shed with
// ErrOverloaded (Transient-wrapped, so the cache never memoizes a rejection
// against the key). Cache hits never reach admission — only work that would
// actually occupy a compile slot can be shed. The bool reports whether the
// caller had to queue (false on the fast path and on a shed).
func (s *Server) admit(ctx context.Context) (bool, error) {
	select {
	case s.sem <- struct{}{}:
		return false, nil
	default:
	}
	if s.waiting.Add(1) > int64(s.opts.QueueDepth) {
		s.waiting.Add(-1)
		s.shed.Add(1)
		return false, engine.Transient(ErrOverloaded)
	}
	defer s.waiting.Add(-1)
	select {
	case s.sem <- struct{}{}:
		return true, nil
	case <-ctx.Done():
		return true, ctx.Err() // don't queue dead work ahead of live requests
	}
}

// stagedInput preprocesses the circuit for the chosen compiler, shaped by
// the registry-wide StageSplitCap rule: ZAC-family compilers consume the
// unsplit staging (so the service's ZAIR stays byte-identical to the `zac`
// CLI) and baselines split to the zoned reference capacity, matching the
// experiment harness.
func stagedInput(c compiler.Compiler, circ *circuit.Circuit) (*circuit.Staged, error) {
	staged, err := resynth.Preprocess(circ)
	if err != nil {
		return nil, err
	}
	return circuit.SplitRydbergStages(staged, compiler.StageSplitCap(c)), nil
}

// resolveCompiler picks the registry compiler for one request — the
// request's "compiler", its legacy "setting" (the Fig. 11 legend names are
// registered aliases), the query-level default, or full ZAC — and returns
// it with the setting string echoed in responses (the ablation preset for
// ZAC-family compilers, the compiler name otherwise).
func resolveCompiler(req CompileRequest, defaultCompiler string) (compiler.Compiler, string, error) {
	name := req.Compiler
	if name == "" {
		name = req.Setting
	}
	if name == "" {
		name = defaultCompiler
	}
	if name == "" {
		name = "zac"
	}
	c, err := compiler.Get(name)
	if err != nil {
		return nil, "", err
	}
	setting := c.Name()
	if s, ok := compiler.Setting(c.Name()); ok {
		setting = s
	}
	return c, setting, nil
}

// resolveCircuit validates the request's circuit source and returns a lazy
// builder plus the circuit component of the cache key (benchmark name,
// canonical workload spec, or content digest for inline QASM). Validation
// (unknown benchmark, malformed QASM, out-of-range spec) happens eagerly so
// bad requests 400 immediately, but materializing the circuit is deferred
// to the builder, which compileOne invokes only on a cache miss *inside*
// the compile semaphore — so a request naming a large generated workload
// cannot allocate outside the service's concurrency bound.
func resolveCircuit(req CompileRequest) (func() (*circuit.Circuit, error), string, error) {
	set := 0
	for _, s := range []string{req.Circuit, req.QASM, req.Workload} {
		if s != "" {
			set++
		}
	}
	if set > 1 {
		return nil, "", fmt.Errorf("set exactly one of \"circuit\", \"qasm\", and \"workload\"")
	}
	switch {
	case req.Workload != "":
		spec, err := workload.Parse(req.Workload)
		if err != nil {
			return nil, "", err
		}
		// The canonical spec keys the cache: requests spelling the same
		// workload differently share one entry.
		return spec.Generate, "workload=" + spec.Canonical(), nil
	case req.Circuit != "":
		b, err := bench.ByName(req.Circuit)
		if err != nil {
			return nil, "", err
		}
		return func() (*circuit.Circuit, error) { return b.Build(), nil }, "circ=" + req.Circuit, nil
	case req.QASM != "":
		c, err := qasm.Parse(req.QASM)
		if err != nil {
			return nil, "", fmt.Errorf("parsing qasm: %w", err)
		}
		name := req.Name
		if name == "" {
			name = "qasm"
		}
		c.Name = name
		key := fmt.Sprintf("qasm=%x|name=%s", sha256.Sum256([]byte(req.QASM)), name)
		return func() (*circuit.Circuit, error) { return c, nil }, key, nil
	default:
		return nil, "", fmt.Errorf("set \"circuit\" (built-in benchmark), \"qasm\" (inline source), or \"workload\" (generator spec)")
	}
}

// resolveArch decodes the request's architecture (default: the compiler's
// target architecture — the paper's reference for ZAC and the zoned
// baselines, the monolithic grid for Enola and Atomique) and applies the
// AOD override. The default is one value per compiler for the server's
// lifetime, so its fingerprint and topology are computed once and a cache
// hit on it computes neither.
func (s *Server) resolveArch(req CompileRequest, c compiler.Compiler) (*arch.Architecture, error) {
	a := s.defaultArch(c)
	if len(req.Arch) > 0 {
		a = &arch.Architecture{}
		if err := json.Unmarshal(req.Arch, a); err != nil {
			return nil, fmt.Errorf("parsing arch: %w", err)
		}
	}
	if req.AODs > 0 {
		a = arch.WithAODs(a, req.AODs)
	}
	return a, nil
}

// defaultArch returns the server's one instance of c's target
// architecture.
func (s *Server) defaultArch(c compiler.Compiler) *arch.Architecture {
	if a, ok := s.archs.Load(c.Name()); ok {
		return a.(*arch.Architecture)
	}
	a, _ := s.archs.LoadOrStore(c.Name(), compiler.TargetArch(c))
	return a.(*arch.Architecture)
}

// recordLatency folds one fresh compilation into the per-compiler
// aggregate.
func (s *Server) recordLatency(name string, d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	record(s.latency, name, d)
}

// recordPasses folds one fresh compilation's pass timings into the
// per-(compiler, pass) aggregates.
func (s *Server) recordPasses(name string, passes []core.PassTiming) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, p := range passes {
		record(s.passes, name+"/"+p.Pass, p.Duration)
	}
}

// record folds one duration into the keyed aggregate map (caller holds the
// lock).
func record(m map[string]*latencyAgg, key string, d time.Duration) {
	ms := float64(d) / float64(time.Millisecond)
	agg := m[key]
	if agg == nil {
		agg = &latencyAgg{}
		m[key] = agg
	}
	agg.count++
	agg.totalMS += ms
	if ms > agg.maxMS {
		agg.maxMS = ms
	}
}

// CacheStats exposes the whole-compile cache hierarchy's counters (used by
// tests and the metrics endpoint).
func (s *Server) CacheStats() engine.TieredStats { return s.cache.Stats() }
