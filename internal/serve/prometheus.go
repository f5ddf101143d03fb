package serve

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
)

// PrometheusContentType is the Content-Type of the Prometheus text
// exposition format version 0.0.4.
const PrometheusContentType = "text/plain; version=0.0.4; charset=utf-8"

// wantsPrometheus reports whether the request negotiated the Prometheus
// text exposition instead of the JSON default: ?format=prom, or an Accept
// header naming text/plain (the format Prometheus scrapers send). JSON
// stays the default for browsers and curl (Accept: */*).
func wantsPrometheus(r *http.Request) bool {
	if r.URL.Query().Get("format") == "prom" {
		return true
	}
	accept := r.Header.Get("Accept")
	return strings.Contains(accept, "text/plain") || strings.Contains(accept, "openmetrics")
}

// promBuilder accumulates exposition lines, emitting each family's
// # HELP/# TYPE header once.
type promBuilder struct {
	b strings.Builder
}

// family writes one metric family's header.
func (p *promBuilder) family(name, help, typ string) {
	fmt.Fprintf(&p.b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// sample writes one sample line; labels alternate key, value and render in
// the given order.
func (p *promBuilder) sample(name string, value float64, labels ...string) {
	p.b.WriteString(name)
	if len(labels) > 0 {
		p.b.WriteByte('{')
		for i := 0; i+1 < len(labels); i += 2 {
			if i > 0 {
				p.b.WriteByte(',')
			}
			fmt.Fprintf(&p.b, "%s=%q", labels[i], labels[i+1])
		}
		p.b.WriteByte('}')
	}
	// %g renders integers without a decimal point and avoids trailing
	// zeros, matching the exposition examples.
	fmt.Fprintf(&p.b, " %g\n", value)
}

// boolGauge renders a bool as the conventional 0/1 gauge value.
func boolGauge(v bool) float64 {
	if v {
		return 1
	}
	return 0
}

// PrometheusText renders a MetricsResponse in the Prometheus text
// exposition format version 0.0.4. Families and label sets emit in a fixed
// sorted order, so the output for a given snapshot is byte-stable (the
// property the golden test pins).
func PrometheusText(m MetricsResponse) []byte {
	var p promBuilder

	p.family("zac_requests_total", "HTTP requests served since startup.", "counter")
	p.sample("zac_requests_total", float64(m.RequestsTotal))
	p.family("zac_compiles_total", "Compilation lookups, cached or not.", "counter")
	p.sample("zac_compiles_total", float64(m.CompilesTotal))
	p.family("zac_inflight_compiles", "Compilations currently executing.", "gauge")
	p.sample("zac_inflight_compiles", float64(m.InFlightCompiles))

	// The whole-compile cache is the only one; the "cache" label stays so
	// dashboards keyed on it keep matching.
	c := m.Cache
	p.family("zac_cache_hits_total", "Cache lookups served without computing, by cache and tier.", "counter")
	p.sample("zac_cache_hits_total", float64(c.MemHits), "cache", "compile", "tier", "mem")
	p.sample("zac_cache_hits_total", float64(c.DiskHits), "cache", "compile", "tier", "disk")
	p.family("zac_cache_misses_total", "Cache lookups that computed from scratch.", "counter")
	p.sample("zac_cache_misses_total", float64(c.Misses), "cache", "compile")
	p.family("zac_cache_hit_ratio", "Hits over lookups in [0,1].", "gauge")
	p.sample("zac_cache_hit_ratio", c.HitRate, "cache", "compile")
	p.family("zac_cache_mem_entries", "Resident entries in the LRU memory front.", "gauge")
	p.sample("zac_cache_mem_entries", float64(c.MemEntries), "cache", "compile")
	p.family("zac_cache_disk_entries", "Entries in the disk tier.", "gauge")
	p.sample("zac_cache_disk_entries", float64(c.DiskEntries), "cache", "compile")
	p.family("zac_cache_disk_bytes", "Total size of the disk tier in bytes.", "gauge")
	p.sample("zac_cache_disk_bytes", float64(c.DiskBytes), "cache", "compile")
	p.family("zac_cache_disk_retries_total", "Disk operations retried after transient I/O errors.", "counter")
	p.sample("zac_cache_disk_retries_total", float64(c.DiskRetries), "cache", "compile")
	p.family("zac_cache_disk_failures_total", "Disk operations that exhausted their retries.", "counter")
	p.sample("zac_cache_disk_failures_total", float64(c.DiskFailures), "cache", "compile")
	p.family("zac_cache_breaker_opens_total", "Disk circuit-breaker transitions to open.", "counter")
	p.sample("zac_cache_breaker_opens_total", float64(c.BreakerOpens), "cache", "compile")
	p.family("zac_cache_breaker_skips_total", "Disk operations short-circuited while the breaker was open.", "counter")
	p.sample("zac_cache_breaker_skips_total", float64(c.BreakerSkips), "cache", "compile")
	p.family("zac_cache_breaker_state", "Disk circuit-breaker state, one-hot by state label.", "gauge")
	if c.BreakerState != "" { // empty: no disk tier attached
		for _, state := range []string{"closed", "half-open", "open"} {
			p.sample("zac_cache_breaker_state", boolGauge(c.BreakerState == state),
				"cache", "compile", "state", state)
		}
	}

	p.family("zac_admission_queue_depth", "Requests waiting for a compile slot.", "gauge")
	p.sample("zac_admission_queue_depth", float64(m.Admission.QueueDepth))
	p.family("zac_admission_queue_limit", "Configured waiting-queue bound.", "gauge")
	p.sample("zac_admission_queue_limit", float64(m.Admission.QueueLimit))
	p.family("zac_admission_shed_total", "Requests rejected with 429 because the queue was full.", "counter")
	p.sample("zac_admission_shed_total", float64(m.Admission.Shed))
	p.family("zac_deadline_exceeded_total", "Requests that missed their timeout_ms deadline.", "counter")
	p.sample("zac_deadline_exceeded_total", float64(m.Admission.DeadlineExceeded))
	p.family("zac_draining", "1 while the server drains for shutdown.", "gauge")
	p.sample("zac_draining", boolGauge(m.Admission.Draining))

	p.family("zac_jobs", "Async jobs by lifecycle status.", "gauge")
	jobStatuses := make([]string, 0, len(m.Jobs))
	for st := range m.Jobs {
		jobStatuses = append(jobStatuses, string(st))
	}
	sort.Strings(jobStatuses)
	for _, st := range jobStatuses {
		p.sample("zac_jobs", float64(m.Jobs[JobStatus(st)]), "status", st)
	}
	p.family("zac_jobs_replayed_total", "Async jobs re-run from the crash journal at startup.", "counter")
	p.sample("zac_jobs_replayed_total", float64(m.JobsReplayed))

	p.family("zac_compile_latency_ms", "Fresh-compilation wall-clock latency by compiler (summary: _sum/_count plus a max gauge).", "summary")
	compilers := make([]string, 0, len(m.Compilers))
	for name := range m.Compilers {
		compilers = append(compilers, name)
	}
	sort.Strings(compilers)
	for _, name := range compilers {
		lm := m.Compilers[name]
		p.sample("zac_compile_latency_ms_sum", lm.TotalMS, "compiler", name)
		p.sample("zac_compile_latency_ms_count", float64(lm.Count), "compiler", name)
	}
	p.family("zac_compile_latency_ms_max", "Worst single fresh compilation by compiler, in milliseconds.", "gauge")
	for _, name := range compilers {
		p.sample("zac_compile_latency_ms_max", m.Compilers[name].MaxMS, "compiler", name)
	}

	p.family("zac_pass_latency_ms", "Fresh-compilation pass latency by compiler and pipeline pass (summary: _sum/_count).", "summary")
	passKeys := make([]string, 0, len(m.Passes))
	for key := range m.Passes {
		passKeys = append(passKeys, key)
	}
	sort.Strings(passKeys)
	for _, key := range passKeys {
		lm := m.Passes[key]
		compilerName, pass, _ := strings.Cut(key, "/")
		p.sample("zac_pass_latency_ms_sum", lm.TotalMS, "compiler", compilerName, "pass", pass)
		p.sample("zac_pass_latency_ms_count", float64(lm.Count), "compiler", compilerName, "pass", pass)
	}

	return []byte(p.b.String())
}
