// Command zac-serve runs the ZAC compiler as a long-lived HTTP service: it
// accepts OpenQASM programs (or built-in benchmark names) plus JSON
// architecture specs, compiles them with bounded concurrency, and returns
// the ZAIR program and fidelity breakdown as JSON. Results are memoized in
// the engine's tiered cache; with -cachedir they persist to disk and survive
// restarts.
//
// Every compile records a telemetry trace (bounded ring, -traces entries;
// -traces 0 disables): the response carries a trace_id, GET /v1/traces
// lists recent traces, GET /v1/traces/{id} shows one span tree, and
// ?format=chrome (or -traceout FILE at shutdown) exports Chrome trace_event
// JSON loadable in Perfetto. Logs are structured (log/slog); -logjson
// switches them to JSON.
//
// With -pprof the standard net/http/pprof endpoints are mounted under
// /debug/pprof/ so a live service can be CPU- or heap-profiled under load.
//
//	zac-serve -addr :8756 -cachedir ~/.cache/zac
//	zac-serve -addr :8756 -pprof -logjson
//	curl -s localhost:8756/healthz
//	curl -s -X POST localhost:8756/v1/compile -d '{"circuit":"ghz_n23"}'
//	curl -s localhost:8756/metrics               # JSON
//	curl -s localhost:8756/metrics?format=prom   # Prometheus text format
//	curl -s localhost:8756/v1/traces
//
// See README.md for the full API reference.
package main

import (
	"context"
	"flag"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"zac/internal/engine"
	"zac/internal/serve"
	"zac/internal/telemetry"
)

func main() {
	addr := flag.String("addr", ":8756", "listen address")
	cacheDir := flag.String("cachedir", "", "persistent compilation-cache directory")
	cacheMB := flag.Int64("cachemb", 0, "disk cache size bound in MiB (0 = unbounded; needs -cachedir)")
	parallel := flag.Int("parallel", 0, "max concurrent compilations (0 = all CPUs)")
	memEntries := flag.Int("mementries", 4096, "in-memory cache capacity in entries (0 = unbounded)")
	maxBatch := flag.Int("maxbatch", 64, "max requests per batch")
	queueDepth := flag.Int("queuedepth", 0, "compile admission queue bound; requests beyond it are shed with 429 (0 = default)")
	pprofOn := flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ (profile live compilations)")
	traces := flag.Int("traces", telemetry.DefaultCapacity, "telemetry trace ring capacity (0 disables request tracing)")
	traceOut := flag.String("traceout", "", "write retained traces as Chrome trace_event JSON to this file at shutdown")
	logJSON := flag.Bool("logjson", false, "emit structured logs as JSON instead of text")
	flag.Parse()

	var handlerOpts slog.HandlerOptions
	var logHandler slog.Handler = slog.NewTextHandler(os.Stderr, &handlerOpts)
	if *logJSON {
		logHandler = slog.NewJSONHandler(os.Stderr, &handlerOpts)
	}
	logger := slog.New(logHandler)

	var recorder *telemetry.Recorder
	if *traces > 0 {
		recorder = telemetry.NewRecorder(*traces)
	}

	opts := serve.Options{
		Parallel: *parallel, MemEntries: *memEntries, MaxBatch: *maxBatch,
		QueueDepth: *queueDepth, Telemetry: recorder, Logger: logger,
	}
	if *cacheDir != "" {
		disk, err := engine.OpenDiskCache(*cacheDir, *cacheMB<<20)
		if err != nil {
			logger.Error("opening disk cache", "dir", *cacheDir, "err", err)
			os.Exit(1)
		}
		opts.Disk = disk
		st := disk.Stats()
		logger.Info("disk cache attached", "dir", disk.Dir(), "entries", st.Entries, "bytes", st.Bytes)
	}

	srv := serve.New(opts)
	if *cacheDir != "" {
		// The async-job journal lives next to the compile cache: accepted
		// jobs a previous process never finished are replayed here, before
		// the listener accepts traffic.
		replayed, err := srv.OpenJournal(filepath.Join(*cacheDir, "jobs"))
		if err != nil {
			logger.Error("opening job journal", "err", err)
			os.Exit(1)
		}
		if replayed > 0 {
			logger.Info("replaying journaled jobs", "jobs", replayed)
		}
	}
	handler := srv.Handler()
	if *pprofOn {
		// Mount the profiling endpoints next to the API so a live service
		// under load can be profiled with
		// `go tool pprof host:port/debug/pprof/profile`.
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
		logger.Info("pprof enabled", "path", "/debug/pprof/")
	}
	httpSrv := &http.Server{
		Addr:    *addr,
		Handler: handler,
		// Bound slow/idle clients so a handful of stalled connections
		// (slowloris) cannot pin listener resources forever. Request bodies
		// are small JSON documents; only compilation itself is long-running.
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	logger.Info("listening", "addr", *addr, "tracing", recorder != nil)

	select {
	case err := <-errc:
		logger.Error("serve failed", "err", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	// Drain sequence: flip /readyz to 503 and refuse new compiles, let
	// in-flight HTTP requests finish, then wait (briefly) for background
	// jobs. Jobs still running at the deadline stay journaled and are
	// replayed by the next process, so SIGTERM never loses an accepted job.
	srv.StartDrain()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		logger.Error("shutdown", "err", err)
	}
	drainErr := srv.Drain(shutdownCtx)
	writeTraceOut(logger, recorder, *traceOut)
	if drainErr != nil {
		logger.Warn("drain deadline: unfinished jobs remain journaled for replay")
		os.Exit(1)
	}
	logger.Info("drained, bye")
}

// writeTraceOut dumps the recorder's retained traces as Chrome trace_event
// JSON — the whole process's request history on one Perfetto timeline.
func writeTraceOut(logger *slog.Logger, recorder *telemetry.Recorder, path string) {
	if path == "" || recorder == nil {
		return
	}
	data, err := telemetry.ChromeTrace(recorder.Dump())
	if err == nil {
		err = os.WriteFile(path, data, 0o644)
	}
	if err != nil {
		logger.Error("writing trace export", "path", path, "err", err)
		return
	}
	logger.Info("trace export written", "path", path, "traces", recorder.Len())
}
