package serve

import (
	"encoding/json"

	"zac/internal/fidelity"
)

// CompileRequest describes one compilation: a circuit (a built-in benchmark
// name, inline OpenQASM 2.0 source, or a workload-forge spec), an optional
// architecture, and optional compiler knobs. Exactly one of Circuit, QASM,
// and Workload must be set.
type CompileRequest struct {
	// Circuit names a built-in benchmark (e.g. "ghz_n23").
	Circuit string `json:"circuit,omitempty"`
	// QASM is inline OpenQASM 2.0 source.
	QASM string `json:"qasm,omitempty"`
	// Workload is a workload-forge generator spec (e.g.
	// "rb:n=32,depth=20,seed=7"; see `zac -list-workloads`). The service
	// generates the circuit deterministically from the spec, and the
	// canonical spec becomes part of the compile cache key, so identical
	// specs hit the tiered cache exactly like identical benchmarks.
	Workload string `json:"workload,omitempty"`
	// Name labels a QASM submission; it becomes the program name in the
	// emitted ZAIR (the CLI uses the input path here). Ignored for built-in
	// benchmarks, which carry their own name.
	Name string `json:"name,omitempty"`
	// Arch is an architecture spec in the artifact JSON format; empty
	// selects the paper's reference architecture.
	Arch json.RawMessage `json:"arch,omitempty"`
	// Setting is a compiler ablation preset (Vanilla | dynPlace |
	// dynPlace+reuse | SA+dynPlace+reuse); empty selects the full ZAC
	// configuration. Superseded by Compiler, kept for API compatibility.
	Setting string `json:"setting,omitempty"`
	// Compiler names a registry compiler (zac, zac-vanilla, zac-dynplace,
	// zac-dynplace-reuse, enola, atomique, nalac, sc-heron, sc-grid; the
	// Fig. 11 legend spellings are accepted as aliases). It overrides
	// Setting and the request-level ?compiler= default; empty falls back to
	// those, then to full ZAC.
	Compiler string `json:"compiler,omitempty"`
	// AODs overrides the architecture's AOD count when positive.
	AODs int `json:"aods,omitempty"`
	// SARestarts, when > 1, runs that many independent annealing chains for
	// ZAC-family initial placement and keeps the best (deterministic
	// winner; see place.Options.SARestarts). It changes the compiled
	// output, so it joins the compile cache key. Negative values are
	// rejected with 400; 0 and 1 select the single-chain default.
	SARestarts int `json:"sa_restarts,omitempty"`
	// Workers, when positive, bounds this compilation's intra-compile
	// parallelism (clamped to the machine's cores). It never changes the
	// compiled bytes and stays out of every cache key; 0 selects the
	// service default — an equal share of the cores per compile slot, so a
	// saturated server does not oversubscribe. Negative values are rejected
	// with 400.
	Workers int `json:"workers,omitempty"`
	// TimeoutMS, when positive, bounds this request's total time in the
	// service — queueing included — in milliseconds. A request that misses
	// its deadline fails with a timeout error (HTTP 504 for a single
	// synchronous request, a per-item error otherwise); the underlying
	// compilation is cancelled unless concurrent identical requests still
	// want it.
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// BatchRequest is the body of POST /v1/compile: either a bare
// CompileRequest (single compilation) or a "requests" array, optionally
// executed asynchronously as a job.
type BatchRequest struct {
	CompileRequest
	// Requests, when non-empty, makes this a batch compilation; the
	// embedded single-request fields are then ignored.
	Requests []CompileRequest `json:"requests,omitempty"`
	// Async makes POST /v1/compile return a job id immediately; poll
	// GET /v1/jobs/{id} for results.
	Async bool `json:"async,omitempty"`
}

// CompileResponse is the JSON result of one compilation.
type CompileResponse struct {
	// Name is the compiled program's name.
	Name string `json:"name"`
	// NumQubits is the circuit width.
	NumQubits int `json:"num_qubits"`
	// Compiler is the canonical registry name of the compiler that ran.
	Compiler string `json:"compiler"`
	// Setting echoes the compiler preset that was applied (the ablation
	// preset for ZAC-family compilers, the compiler name otherwise).
	Setting string `json:"setting"`
	// Fidelity is the paper's per-term fidelity decomposition.
	Fidelity fidelity.Breakdown `json:"fidelity"`
	// DurationUS is the compiled circuit's duration in microseconds.
	DurationUS float64 `json:"duration_us"`
	// CompileMS is the wall-clock compile time in milliseconds, measured at
	// the compilation that populated the cache entry.
	CompileMS float64 `json:"compile_ms"`
	// RydbergStages counts the program's Rydberg (entangling) stages.
	RydbergStages int `json:"rydberg_stages"`
	// RearrangeJobs counts the emitted atom-rearrangement jobs.
	RearrangeJobs int `json:"rearrange_jobs"`
	// ReusedGates counts gates served by qubit reuse.
	ReusedGates int `json:"reused_gates"`
	// Moves counts individual qubit movements.
	Moves int `json:"moves"`
	// Cached reports that this request did not compile anything itself:
	// the result came from the cache (memory or disk) or was shared with a
	// concurrent identical request already compiling it.
	Cached bool `json:"cached"`
	// TraceID identifies this request's telemetry trace, inspectable at
	// GET /v1/traces/{id}. Omitted when the server runs without a trace
	// recorder.
	TraceID string `json:"trace_id,omitempty"`
	// ZAIR is the compiled program, byte-identical to the `zac -out` CLI
	// encoding. The service encodes it once, when the compilation runs,
	// caches those bytes with the result in both tiers, and splices them
	// into every reply that serves it (re-indented for its depth in the
	// reply; ?format=zair writes them as they are). Omitted when the request
	// was made with ?zair=0.
	ZAIR json.RawMessage `json:"zair,omitempty"`
}

// BatchItem is one entry of a batch response: a result or a per-item error.
type BatchItem struct {
	// Result is the successful compilation, nil on error.
	Result *CompileResponse `json:"result,omitempty"`
	// Error is the failure message, empty on success.
	Error string `json:"error,omitempty"`
	// TraceID identifies the request's telemetry trace — present on
	// failures too, so a shed or timed-out request stays inspectable.
	// Omitted when the server runs without a trace recorder.
	TraceID string `json:"trace_id,omitempty"`

	// status is the HTTP status a single synchronous request reports for
	// this failure (429 shed, 504 deadline); 0 means 400. Batch responses
	// stay 200 with per-item errors, so it never goes on the wire.
	status int
}

// BatchResponse is the body of a synchronous batch compilation.
type BatchResponse struct {
	// Results holds one item per request, in request order.
	Results []BatchItem `json:"results"`
}

// ErrorResponse is the body of every non-2xx API response.
type ErrorResponse struct {
	// Error is the human-readable failure message.
	Error string `json:"error"`
}

// JobStatus enumerates the lifecycle states of an async compilation job.
type JobStatus string

// The job lifecycle states. JobInterrupted is terminal and only assigned at
// startup, to a job whose journal record survived a crash but was too
// damaged to replay — its id answers polls instead of 404ing, but its
// requests are lost.
const (
	JobPending     JobStatus = "pending"
	JobRunning     JobStatus = "running"
	JobDone        JobStatus = "done"
	JobFailed      JobStatus = "failed"
	JobCanceled    JobStatus = "canceled"
	JobInterrupted JobStatus = "interrupted"
)

// JobResponse is the body of GET /v1/jobs/{id} (and of the 202 returned for
// async submissions).
type JobResponse struct {
	// ID is the job identifier to poll.
	ID string `json:"id"`
	// Status is the job's lifecycle state.
	Status JobStatus `json:"status"`
	// Total counts the job's compilation requests.
	Total int `json:"total"`
	// Completed counts finished (succeeded or failed) requests so far.
	Completed int `json:"completed"`
	// Results holds one item per request once the job is done.
	Results []BatchItem `json:"results,omitempty"`
}

// MetricsResponse is the body of GET /metrics: a machine-readable snapshot
// of service health.
type MetricsResponse struct {
	// RequestsTotal counts HTTP requests served since startup.
	RequestsTotal uint64 `json:"requests_total"`
	// CompilesTotal counts compilation lookups (cached or not).
	CompilesTotal uint64 `json:"compiles_total"`
	// InFlightCompiles is the number of compilations currently executing.
	InFlightCompiles int64 `json:"inflight_compiles"`
	// Cache reports the whole-compile cache hierarchy's counters.
	Cache CacheMetrics `json:"cache"`
	// Admission reports the admission controller's state: queue occupancy,
	// shed requests, deadline misses, and whether the server is draining.
	Admission AdmissionMetrics `json:"admission"`
	// Jobs counts async jobs by status.
	Jobs map[JobStatus]int `json:"jobs"`
	// JobsReplayed counts async jobs re-run from the crash journal at
	// startup.
	JobsReplayed uint64 `json:"jobs_replayed"`
	// Compilers reports per-compiler latency aggregates, keyed by registry
	// name.
	Compilers map[string]LatencyMetrics `json:"compilers"`
	// Passes reports per-pass latency aggregates, keyed "compiler/pass"
	// (e.g. "zac/place"). Only fresh compilations count; pass timings of
	// cached results were recorded when they were computed.
	Passes map[string]LatencyMetrics `json:"passes"`
}

// CacheMetrics is the cache section of MetricsResponse.
type CacheMetrics struct {
	// MemHits counts lookups served by the in-memory LRU front.
	MemHits uint64 `json:"mem_hits"`
	// DiskHits counts lookups restored from the disk tier.
	DiskHits uint64 `json:"disk_hits"`
	// Misses counts lookups that compiled from scratch.
	Misses uint64 `json:"misses"`
	// HitRate is (MemHits+DiskHits)/lookups in [0,1].
	HitRate float64 `json:"hit_rate"`
	// MemEntries is the LRU front's resident entry count.
	MemEntries int `json:"mem_entries"`
	// DiskEntries is the disk tier's entry count (0 without -cachedir).
	DiskEntries int `json:"disk_entries"`
	// DiskBytes is the disk tier's total size in bytes.
	DiskBytes int64 `json:"disk_bytes"`
	// DiskRetries counts disk operations retried after a transient I/O
	// error (each retry slept a jittered backoff first).
	DiskRetries uint64 `json:"disk_retries"`
	// DiskFailures counts disk operations that exhausted their retries.
	DiskFailures uint64 `json:"disk_failures"`
	// BreakerOpens counts transitions of the disk tier's circuit breaker to
	// the open state.
	BreakerOpens uint64 `json:"breaker_opens"`
	// BreakerSkips counts disk operations short-circuited while the breaker
	// was open (the cache ran memory-only).
	BreakerSkips uint64 `json:"breaker_skips"`
	// BreakerState is the disk tier's breaker state ("closed", "open",
	// "half-open"); empty when no disk tier is attached.
	BreakerState string `json:"breaker_state,omitempty"`
}

// AdmissionMetrics is the admission-control section of MetricsResponse.
type AdmissionMetrics struct {
	// QueueDepth is the number of requests currently waiting for a compile
	// slot (running compiles are reported as inflight_compiles).
	QueueDepth int64 `json:"queue_depth"`
	// QueueLimit is the configured waiting-queue bound; a request arriving
	// with the queue full is shed with 429.
	QueueLimit int `json:"queue_limit"`
	// Shed counts requests rejected with 429 because the queue was full.
	Shed uint64 `json:"shed"`
	// DeadlineExceeded counts requests that missed their timeout_ms
	// deadline.
	DeadlineExceeded uint64 `json:"deadline_exceeded"`
	// Draining reports that the server is shutting down: /readyz answers
	// 503 and new compile requests are refused.
	Draining bool `json:"draining"`
}

// LatencyMetrics aggregates wall-clock compile latency for one compiler
// setting. Only fresh compilations count; cache hits are free.
type LatencyMetrics struct {
	// Count is the number of fresh compilations.
	Count uint64 `json:"count"`
	// TotalMS is the summed wall-clock latency in milliseconds.
	TotalMS float64 `json:"total_ms"`
	// AvgMS is TotalMS / Count.
	AvgMS float64 `json:"avg_ms"`
	// MaxMS is the worst single compilation in milliseconds.
	MaxMS float64 `json:"max_ms"`
}
