package benchsuite

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"zac/internal/benchsuite/stats"
)

// GateOptions tunes the statistical regression gate.
type GateOptions struct {
	// Alpha is the significance level of the Mann-Whitney test (default
	// 0.05): a regression is only real when p < Alpha.
	Alpha float64
	// MinDeltaPct is the practical-significance floor (default 3): a
	// statistically significant median delta below it is reported but not
	// flagged — at benchmark noise levels a 1% "significant" shift is a
	// measurement artifact, not a regression.
	MinDeltaPct float64
	// ThresholdPct is the fallback raw gate (default 20) used when a
	// metric's samples are too few or too degenerate for the statistical
	// test (stats.ErrTooFewSamples / stats.ErrAllEqual).
	ThresholdPct float64
	// Cases, when non-empty, restricts the gate to these exact case
	// names; everything else in either record set is ignored.
	Cases []string
}

// normalized fills the options' defaults.
func (o GateOptions) normalized() GateOptions {
	if o.Alpha <= 0 {
		o.Alpha = 0.05
	}
	if o.MinDeltaPct <= 0 {
		o.MinDeltaPct = 3
	}
	if o.ThresholdPct <= 0 {
		o.ThresholdPct = 20
	}
	return o
}

// Gate modes: how one verdict was decided.
const (
	// ModeStats marks a verdict decided by the Mann-Whitney test.
	ModeStats = "stats"
	// ModeThreshold marks the raw-threshold fallback (too few samples).
	ModeThreshold = "threshold"
	// ModeSkipped marks a case the gate could not compare (missing on one
	// side, or measured at different GOMAXPROCS).
	ModeSkipped = "skipped"
)

// metrics are the gated sample vectors of a record, in verdict order.
var metrics = [...]struct {
	name    string
	samples func(Record) []float64
}{
	{"ns/op", func(r Record) []float64 { return r.NsPerOp }},
	{"B/op", func(r Record) []float64 { return r.BPerOp }},
	{"allocs/op", func(r Record) []float64 { return r.AllocsPerOp }},
}

// Verdict is the gate's decision for one metric of one case, or for the
// whole case when it is skipped.
type Verdict struct {
	Case string
	// Metric is "ns/op", "B/op" or "allocs/op"; "" on a case-level skip.
	Metric string
	// Mode is ModeStats, ModeThreshold, or ModeSkipped.
	Mode string
	// P is the two-sided p-value (ModeStats only).
	P float64
	// OldMedian and NewMedian are the medians of the metric's two sample
	// sets.
	OldMedian, NewMedian float64
	// DeltaPct is the median change in percent (positive = worse); +Inf
	// when the baseline median is 0 and the current one is not.
	DeltaPct float64
	// Regressed reports whether the gate flags this verdict.
	Regressed bool
	// Improved reports a significant improvement (informational).
	Improved bool
	// Note carries the human-readable reason for fallback/skip verdicts.
	Note string
}

// ErrFingerprintMismatch reports an attempt to gate sample sets measured on
// different machines; such comparisons are meaningless and always refused.
var ErrFingerprintMismatch = errors.New("benchsuite: records span different machine fingerprints")

// Gate compares current against baseline case by case and returns, sorted
// by case, one verdict per metric that both sides carry (records without
// allocation vectors are judged on ns/op only), or one skip verdict for a
// case that cannot be compared. All records on both sides must carry the
// same machine fingerprint — the gate refuses cross-machine comparisons
// outright (ErrFingerprintMismatch) rather than produce a number that
// looks like a measurement.
func Gate(baseline, current []Record, opts GateOptions) ([]Verdict, error) {
	opts = opts.normalized()
	machine := ""
	for _, r := range append(append([]Record{}, baseline...), current...) {
		if machine == "" {
			machine = r.MachineID
		} else if r.MachineID != machine {
			return nil, fmt.Errorf("%w (%s vs %s)", ErrFingerprintMismatch, machine, r.MachineID)
		}
	}
	keep := map[string]bool{}
	for _, c := range opts.Cases {
		keep[c] = true
	}
	type side struct {
		samples [len(metrics)][]float64
		// procs is the first known GOMAXPROCS of the case's records, and
		// otherProcs a second, different one (0 when there is none):
		// samples taken at two proc counts must not be pooled.
		procs, otherProcs int
	}
	collect := func(records []Record) map[string]*side {
		m := map[string]*side{}
		for _, r := range records {
			if len(keep) > 0 && !keep[r.Case] {
				continue
			}
			s, ok := m[r.Case]
			if !ok {
				s = &side{}
				m[r.Case] = s
			}
			switch {
			case s.procs == 0:
				s.procs = r.Procs
			case r.Procs != 0 && r.Procs != s.procs && s.otherProcs == 0:
				s.otherProcs = r.Procs
			}
			for i, mt := range metrics {
				s.samples[i] = append(s.samples[i], mt.samples(r)...)
			}
		}
		return m
	}
	olds, news := collect(baseline), collect(current)
	var verdicts []Verdict
	for name, old := range olds {
		skip := Verdict{Case: name, Mode: ModeSkipped}
		cur, ok := news[name]
		switch {
		case !ok:
			skip.Regressed = true
			skip.Note = "present in baseline but missing in current run"
		case old.otherProcs != 0:
			skip.Note = fmt.Sprintf("baseline pools samples at gomaxprocs %d and %d; not comparable", old.procs, old.otherProcs)
		case cur.otherProcs != 0:
			skip.Note = fmt.Sprintf("current run pools samples at gomaxprocs %d and %d; not comparable", cur.procs, cur.otherProcs)
		case old.procs != 0 && cur.procs != 0 && old.procs != cur.procs:
			// Different GOMAXPROCS means a different machine configuration,
			// not a code delta. Records predating the field (0 = unknown)
			// stay comparable.
			skip.Note = fmt.Sprintf("gomaxprocs changed (%d → %d); not comparable", old.procs, cur.procs)
		default:
			for i, mt := range metrics {
				if len(old.samples[i]) > 0 && len(cur.samples[i]) > 0 {
					verdicts = append(verdicts, judge(name, mt.name, old.samples[i], cur.samples[i], opts))
				}
			}
			continue
		}
		verdicts = append(verdicts, skip)
	}
	for name := range news {
		if _, ok := olds[name]; !ok {
			verdicts = append(verdicts, Verdict{Case: name, Mode: ModeSkipped, Note: "present in current run but missing in baseline"})
		}
	}
	// Verdicts of one case stay in metrics order: the sort is stable and
	// each case's verdicts were appended together.
	sort.SliceStable(verdicts, func(i, j int) bool { return verdicts[i].Case < verdicts[j].Case })
	return verdicts, nil
}

// judge decides one metric of one case from its two sample vectors.
func judge(name, metric string, old, cur []float64, opts GateOptions) Verdict {
	v := Verdict{
		Case:      name,
		Metric:    metric,
		OldMedian: stats.Median(old),
		NewMedian: stats.Median(cur),
	}
	switch {
	case v.OldMedian > 0:
		v.DeltaPct = (v.NewMedian/v.OldMedian - 1) * 100
	case v.NewMedian > 0:
		v.DeltaPct = math.Inf(1)
	}
	res, err := stats.MannWhitneyU(old, cur)
	switch {
	case errors.Is(err, stats.ErrTooFewSamples), errors.Is(err, stats.ErrAllEqual):
		v.Mode = ModeThreshold
		v.Regressed = v.DeltaPct > opts.ThresholdPct
		v.Improved = v.DeltaPct < -opts.ThresholdPct
		v.Note = fmt.Sprintf("statistical test unavailable (%v); raw %.0f%% threshold applied", err, opts.ThresholdPct)
	case err != nil:
		v.Mode = ModeSkipped
		v.Note = err.Error()
	default:
		v.Mode = ModeStats
		v.P = res.P
		significant := res.P < opts.Alpha
		v.Regressed = significant && v.DeltaPct > opts.MinDeltaPct
		v.Improved = significant && v.DeltaPct < -opts.MinDeltaPct
	}
	// A kernel that allocated nothing and now allocates has regressed,
	// however the test judges the size of the shift.
	if math.IsInf(v.DeltaPct, 1) {
		v.Regressed = true
	}
	return v
}

// Regressions counts the flagged verdicts.
func Regressions(verdicts []Verdict) int {
	n := 0
	for _, v := range verdicts {
		if v.Regressed {
			n++
		}
	}
	return n
}

// GateCommits runs the gate over a store: baseline and current name commits
// recorded for machineID ("latest" allowed for current). It is the
// programmatic core of `zac-benchsuite gate`.
func GateCommits(s *Store, machineID, baseline, current string, opts GateOptions) ([]Verdict, error) {
	base, err := s.AtCommit(machineID, baseline)
	if err != nil {
		return nil, err
	}
	if len(base) == 0 {
		return nil, fmt.Errorf("benchsuite: no baseline records for machine %s at commit %q", machineID, baseline)
	}
	cur, err := s.AtCommit(machineID, current)
	if err != nil {
		return nil, err
	}
	if len(cur) == 0 {
		return nil, fmt.Errorf("benchsuite: no current records for machine %s at commit %q", machineID, current)
	}
	return Gate(base, cur, opts)
}
