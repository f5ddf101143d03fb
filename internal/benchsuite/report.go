package benchsuite

import (
	"fmt"
	"html"
	"strings"

	"zac/internal/benchsuite/stats"
)

// ReportOptions selects what a report covers.
type ReportOptions struct {
	// MachineID restricts the report to one machine ("" = every machine
	// in the store).
	MachineID string
	// LastN is the trend depth in commits (default 10).
	LastN int
	// Confidence is the level of the reported median CIs (default 0.95).
	Confidence float64
}

// normalized fills the options' defaults.
func (o ReportOptions) normalized() ReportOptions {
	if o.LastN <= 0 {
		o.LastN = 10
	}
	if o.Confidence <= 0 {
		o.Confidence = 0.95
	}
	return o
}

// reportRow is one case's rendered view: latest summary plus the trend
// tail, shared by both output formats so they can never disagree.
type reportRow struct {
	Case      string
	Commit    string
	Reps      int
	Median    float64
	CI        stats.Interval
	DeltaPct  float64 // vs previous commit's median; NaN-free: 0 when no previous
	HasPrev   bool
	TrendText string // "104.0 → 101.2 → 98.7" medians, oldest first
	// BOp and AllocsOp are the latest commit's median B/op and allocs/op;
	// HasAlloc is false for cases whose records predate schema 2 and carry
	// no allocation vectors.
	BOp      float64
	AllocsOp float64
	HasAlloc bool
}

// reportMachine is one machine's section.
type reportMachine struct {
	ID          string
	Fingerprint Fingerprint
	Rows        []reportRow
}

// buildReport assembles the deterministic data model both generators
// render: machines sorted by id, cases sorted by name, trends in commit
// append order.
func buildReport(s *Store, opts ReportOptions) ([]reportMachine, error) {
	opts = opts.normalized()
	var ids []string
	if opts.MachineID != "" {
		ids = []string{opts.MachineID}
	} else {
		var err error
		ids, err = s.Machines()
		if err != nil {
			return nil, err
		}
	}
	var machines []reportMachine
	for _, id := range ids {
		records, err := s.Records(id)
		if err != nil {
			return nil, err
		}
		if len(records) == 0 {
			continue
		}
		m := reportMachine{ID: id, Fingerprint: records[0].Machine}
		cases, err := s.Cases(id)
		if err != nil {
			return nil, err
		}
		for _, name := range cases {
			trend, err := s.Trend(id, name, opts.LastN)
			if err != nil {
				return nil, err
			}
			if len(trend) == 0 {
				continue
			}
			last := trend[len(trend)-1]
			row := reportRow{
				Case:   name,
				Commit: last.Commit,
				Reps:   last.Summary.N,
				Median: last.Summary.Median,
			}
			if ci, err := stats.MedianCI(last.Samples, opts.Confidence); err == nil {
				row.CI = ci
			}
			if len(last.BSamples) > 0 {
				row.BOp = stats.Median(last.BSamples)
				row.AllocsOp = stats.Median(last.AllocSamples)
				row.HasAlloc = true
			}
			if len(trend) > 1 {
				prev := trend[len(trend)-2].Summary.Median
				if prev > 0 {
					row.DeltaPct = (last.Summary.Median/prev - 1) * 100
					row.HasPrev = true
				}
			}
			var parts []string
			for _, p := range trend {
				parts = append(parts, fmt.Sprintf("%.1f", p.Summary.Median))
			}
			row.TrendText = strings.Join(parts, " → ")
			m.Rows = append(m.Rows, row)
		}
		machines = append(machines, m)
	}
	return machines, nil
}

// shortCommit truncates a commit sha for display.
func shortCommit(c string) string {
	if len(c) > 12 {
		return c[:12]
	}
	return c
}

// deltaCell renders the vs-previous column.
func (r reportRow) deltaCell() string {
	if !r.HasPrev {
		return "—"
	}
	return fmt.Sprintf("%+.1f%%", r.DeltaPct)
}

// ciCell renders the median confidence interval column.
func (r reportRow) ciCell() string {
	if r.CI.Confidence == 0 {
		return "—"
	}
	return fmt.Sprintf("[%.1f, %.1f] @%.0f%%", r.CI.Lo, r.CI.Hi, r.CI.Confidence*100)
}

// allocCell renders the allocation column ("B/op / allocs/op" medians).
func (r reportRow) allocCell() string {
	if !r.HasAlloc {
		return "—"
	}
	return fmt.Sprintf("%.0f B / %.1f", r.BOp, r.AllocsOp)
}

// MarkdownReport renders the store as a markdown document: one section per
// machine, one table row per case with the latest median, its CI, the delta
// against the previous commit, and the per-commit median trend. The output
// is byte-stable for a fixed store.
func MarkdownReport(s *Store, opts ReportOptions) (string, error) {
	opts = opts.normalized()
	machines, err := buildReport(s, opts)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("# zac-benchsuite report\n")
	if len(machines) == 0 {
		b.WriteString("\n_No records in store._\n")
		return b.String(), nil
	}
	for _, m := range machines {
		fmt.Fprintf(&b, "\n## Machine `%s`\n\n", m.ID)
		fmt.Fprintf(&b, "%s\n\n", m.Fingerprint.String())
		fmt.Fprintf(&b, "| case | commit | reps | median ns/op | median CI | alloc/op | vs prev | trend (≤%d commits) |\n", opts.LastN)
		b.WriteString("|---|---|---:|---:|---|---:|---:|---|\n")
		for _, r := range m.Rows {
			fmt.Fprintf(&b, "| `%s` | `%s` | %d | %.1f | %s | %s | %s | %s |\n",
				r.Case, shortCommit(r.Commit), r.Reps, r.Median, r.ciCell(), r.allocCell(), r.deltaCell(), r.TrendText)
		}
	}
	return b.String(), nil
}

// HTMLReport renders the same data model as MarkdownReport into a
// self-contained HTML page (no external assets), byte-stable for a fixed
// store.
func HTMLReport(s *Store, opts ReportOptions) (string, error) {
	opts = opts.normalized()
	machines, err := buildReport(s, opts)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("<!DOCTYPE html>\n<html>\n<head>\n<meta charset=\"utf-8\">\n<title>zac-benchsuite report</title>\n")
	b.WriteString("<style>\nbody{font-family:sans-serif;margin:2em}\ntable{border-collapse:collapse}\nth,td{border:1px solid #ccc;padding:4px 8px;text-align:left}\ntd.num{text-align:right}\ntd.worse{color:#b00}\ntd.better{color:#070}\ncode{background:#f4f4f4;padding:1px 3px}\n</style>\n</head>\n<body>\n<h1>zac-benchsuite report</h1>\n")
	if len(machines) == 0 {
		b.WriteString("<p><em>No records in store.</em></p>\n</body>\n</html>\n")
		return b.String(), nil
	}
	for _, m := range machines {
		fmt.Fprintf(&b, "<h2>Machine <code>%s</code></h2>\n", html.EscapeString(m.ID))
		fmt.Fprintf(&b, "<p>%s</p>\n", html.EscapeString(m.Fingerprint.String()))
		fmt.Fprintf(&b, "<table>\n<tr><th>case</th><th>commit</th><th>reps</th><th>median ns/op</th><th>median CI</th><th>alloc/op</th><th>vs prev</th><th>trend (≤%d commits)</th></tr>\n", opts.LastN)
		for _, r := range m.Rows {
			deltaClass := "num"
			if r.HasPrev && r.DeltaPct > 0 {
				deltaClass = "num worse"
			} else if r.HasPrev && r.DeltaPct < 0 {
				deltaClass = "num better"
			}
			fmt.Fprintf(&b, "<tr><td><code>%s</code></td><td><code>%s</code></td><td class=\"num\">%d</td><td class=\"num\">%.1f</td><td>%s</td><td class=\"num\">%s</td><td class=\"%s\">%s</td><td>%s</td></tr>\n",
				html.EscapeString(r.Case), html.EscapeString(shortCommit(r.Commit)), r.Reps, r.Median,
				html.EscapeString(r.ciCell()), html.EscapeString(r.allocCell()), deltaClass, html.EscapeString(r.deltaCell()), html.EscapeString(r.TrendText))
		}
		b.WriteString("</table>\n")
	}
	b.WriteString("</body>\n</html>\n")
	return b.String(), nil
}
