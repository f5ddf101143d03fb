package serve

import (
	"net/http"

	"zac/internal/engine"
)

// handleMetrics serves GET /metrics: a machine-readable service snapshot —
// JSON by default, or the Prometheus text exposition format when negotiated
// via ?format=prom or an Accept header naming text/plain.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if wantsPrometheus(r) {
		w.Header().Set("Content-Type", PrometheusContentType)
		w.WriteHeader(http.StatusOK)
		w.Write(PrometheusText(s.Metrics()))
		return
	}
	writeJSON(w, http.StatusOK, s.Metrics())
}

// cacheMetrics projects tiered-cache counters onto the API shape.
func cacheMetrics(st engine.TieredStats) CacheMetrics {
	return CacheMetrics{
		MemHits:      st.MemHits,
		DiskHits:     st.DiskHits,
		Misses:       st.Misses,
		HitRate:      st.HitRate(),
		MemEntries:   st.MemEntries,
		DiskEntries:  st.Disk.Entries,
		DiskBytes:    st.Disk.Bytes,
		DiskRetries:  st.Disk.Retries,
		DiskFailures: st.Disk.IOFailures,
		BreakerOpens: st.Disk.BreakerOpens,
		BreakerSkips: st.Disk.BreakerSkips,
		BreakerState: st.Disk.BreakerState,
	}
}

// Metrics assembles the current MetricsResponse.
func (s *Server) Metrics() MetricsResponse {
	m := MetricsResponse{
		RequestsTotal:    s.requests.Load(),
		CompilesTotal:    s.compiles.Load(),
		InFlightCompiles: s.inflight.Load(),
		Cache:            cacheMetrics(s.cache.Stats()),
		Admission: AdmissionMetrics{
			QueueDepth:       s.waiting.Load(),
			QueueLimit:       s.opts.QueueDepth,
			Shed:             s.shed.Load(),
			DeadlineExceeded: s.deadlines.Load(),
			Draining:         s.draining.Load(),
		},
		Jobs:         map[JobStatus]int{},
		JobsReplayed: s.jobsReplayed.Load(),
		Compilers:    map[string]LatencyMetrics{},
		Passes:       map[string]LatencyMetrics{},
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, j := range s.jobs {
		j.mu.Lock()
		m.Jobs[j.status]++
		j.mu.Unlock()
	}
	for key, agg := range s.latency {
		m.Compilers[key] = agg.metrics()
	}
	for key, agg := range s.passes {
		m.Passes[key] = agg.metrics()
	}
	return m
}

// metrics renders one aggregate as the API shape.
func (a *latencyAgg) metrics() LatencyMetrics {
	lm := LatencyMetrics{Count: a.count, TotalMS: a.totalMS, MaxMS: a.maxMS}
	if a.count > 0 {
		lm.AvgMS = a.totalMS / float64(a.count)
	}
	return lm
}
