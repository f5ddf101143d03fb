package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// tailLadder is the set of percentiles, in per mille, a workload's tail
// latency is chosen from.
var tailLadder = []int{500, 750, 900, 950, 980, 990, 995, 998, 999}

// minBeyondTail is how many samples must lie beyond the tail percentile for
// it to be reported: fewer and the "tail" is one or two unlucky operations.
const minBeyondTail = 10

// tailPerMille returns the highest percentile of tailLadder, in per mille,
// with at least minBeyondTail of n samples beyond it, or 0 when even the
// median has too few.
func tailPerMille(n int) int {
	best := 0
	for _, pm := range tailLadder {
		if n*(1000-pm) >= minBeyondTail*1000 {
			best = pm
		}
	}
	return best
}

// percentile returns the p-th percentile (0–100) of xs by linear
// interpolation between closest ranks; xs need not be sorted. It returns 0
// for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// median is the 50th percentile.
func median(xs []float64) float64 { return percentile(xs, 50) }

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// procSnapshot is the process-wide resource state at one instant; two of
// them bracket a timed window.
type procSnapshot struct {
	wall       time.Time
	cpu        time.Duration // user + system
	totalAlloc uint64        // cumulative heap bytes allocated
}

func snapshot() procSnapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSnapshot{wall: time.Now(), cpu: cpuTime(), totalAlloc: ms.TotalAlloc}
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's peak resident set size (Linux reports
// ru_maxrss in KiB).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// window is what one timed loop observed: per-operation latencies of the
// operations that passed their check, the attempt and failure counts, the
// output bytes of the passing operations, and the resource snapshots that
// bracket it.
type window struct {
	latMS     []float64
	attempted int
	failed    int
	outBytes  int64
	quality   quality
	start     procSnapshot
	end       procSnapshot
}

func (w *window) ok() int { return w.attempted - w.failed }

func (w *window) seconds() float64 { return w.end.wall.Sub(w.start.wall).Seconds() }

// endToEnd derives the end-to-end metrics of a measured window; setupS is
// the median set-up time.
func endToEnd(w *window, tailPM int, setupS float64) map[string]metric {
	ok := float64(w.ok())
	per := func(x float64) float64 {
		if ok == 0 {
			return 0
		}
		return x / ok
	}
	return map[string]metric{
		"throughput_ops_s":            {ok / w.seconds(), "1/s"},
		"latency_p50_ms":              {median(w.latMS), "ms"},
		"latency_tail_ms":             {percentile(w.latMS, float64(tailPM)/10), "ms"},
		"cpu_ms_per_op":               {per(ms(w.end.cpu - w.start.cpu)), "ms"},
		"alloc_kb_per_op":             {per(float64(w.end.totalAlloc-w.start.totalAlloc) / 1024), "KiB"},
		"peak_rss_mb":                 {peakRSSMiB(), "MiB"},
		"setup_s":                     {setupS, "s"},
		"fidelity_geomean":            {w.quality.fidelity(), "1"},
		"circuit_duration_us_geomean": {w.quality.durationUS(), "us"},
		"output_kb_per_op":            {per(float64(w.outBytes) / 1024), "KiB"},
	}
}

// quality accumulates the compiled-output quality of the operations that
// passed their check: the geometric means of the paper's fidelity (§VII-B)
// and of the circuit's duration on the hardware. The compiler is
// deterministic, so an input's values never change; the means move only
// with the mix of inputs the window completed.
type quality struct {
	logFid, logDur float64
	n              int
}

func (q *quality) add(fidelity, durationUS float64) {
	q.logFid += math.Log(fidelity)
	q.logDur += math.Log(durationUS)
	q.n++
}

func (q *quality) merge(o quality) {
	q.logFid += o.logFid
	q.logDur += o.logDur
	q.n += o.n
}

func (q *quality) fidelity() float64 { return q.mean(q.logFid) }

func (q *quality) durationUS() float64 { return q.mean(q.logDur) }

func (q *quality) mean(sum float64) float64 {
	if q.n == 0 {
		return 0
	}
	return math.Exp(sum / float64(q.n))
}
