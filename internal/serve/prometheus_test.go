package serve

import (
	"io"
	"net/http"
	"strings"
	"testing"
)

// promFixture is a fully populated metrics snapshot: every family, a disk
// breaker state, jobs in two statuses, and per-compiler and
// per-pass latency — so the golden exercises each exposition branch.
func promFixture() MetricsResponse {
	return MetricsResponse{
		RequestsTotal:    120,
		CompilesTotal:    42,
		InFlightCompiles: 3,
		Cache: CacheMetrics{
			MemHits: 30, DiskHits: 5, Misses: 7, HitRate: 0.8333333333333334,
			MemEntries: 7, DiskEntries: 12, DiskBytes: 65536,
			DiskRetries: 2, DiskFailures: 1, BreakerOpens: 1, BreakerSkips: 4,
			BreakerState: "half-open",
		},
		Admission: AdmissionMetrics{
			QueueDepth: 2, QueueLimit: 64, Shed: 11, DeadlineExceeded: 1, Draining: true,
		},
		Jobs:         map[JobStatus]int{JobRunning: 1, JobDone: 4},
		JobsReplayed: 2,
		Compilers: map[string]LatencyMetrics{
			"zac":   {Count: 5, TotalMS: 1234.5, AvgMS: 246.9, MaxMS: 400.25},
			"enola": {Count: 1, TotalMS: 9.5, AvgMS: 9.5, MaxMS: 9.5},
		},
		Passes: map[string]LatencyMetrics{
			"zac/place":    {Count: 5, TotalMS: 1000, AvgMS: 200, MaxMS: 350},
			"zac/schedule": {Count: 5, TotalMS: 200.5, AvgMS: 40.1, MaxMS: 80},
		},
	}
}

// TestPrometheusGolden pins the text exposition byte-for-byte: family order,
// HELP/TYPE headers, label ordering, and %g value rendering.
func TestPrometheusGolden(t *testing.T) {
	checkGolden(t, "metrics_prom", PrometheusText(promFixture()))
}

// TestPrometheusNegotiation pins content negotiation on /metrics: JSON by
// default, the 0.0.4 text format via ?format=prom or a scraper-style Accept
// header.
func TestPrometheusNegotiation(t *testing.T) {
	_, ts := newTestServer(t, Options{})

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("default Content-Type = %q, want application/json", ct)
	}

	resp, err = http.Get(ts.URL + "/metrics?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != PrometheusContentType {
		t.Errorf("?format=prom Content-Type = %q, want %q", ct, PrometheusContentType)
	}

	req, err := http.NewRequest("GET", ts.URL+"/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/plain;version=0.0.4")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != PrometheusContentType {
		t.Errorf("Accept-negotiated Content-Type = %q, want %q", ct, PrometheusContentType)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{
		"# HELP zac_requests_total", "# TYPE zac_requests_total counter",
		"zac_cache_hits_total{cache=\"compile\",tier=\"mem\"}",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}
