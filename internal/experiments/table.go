// Package experiments regenerates every table and figure of the paper's
// evaluation (§VII–§IX): each runner compiles the benchmark suite under the
// relevant compilers/architectures and returns the same rows or series the
// paper reports, as plain-text tables and CSV.
package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"zac/internal/fidelity"
)

// Table is a named grid of per-circuit values with fixed column order.
type Table struct {
	Title   string
	Columns []string
	Rows    []Row
	Notes   []string
}

// Row is one benchmark's values.
type Row struct {
	Circuit string
	Values  map[string]float64
}

// AddRow appends a row.
func (t *Table) AddRow(circuit string, values map[string]float64) {
	t.Rows = append(t.Rows, Row{Circuit: circuit, Values: values})
}

// GeoMeanRow computes the per-column geometric mean over all rows, matching
// the paper's summary statistic.
func (t *Table) GeoMeanRow() Row {
	vals := map[string]float64{}
	for _, col := range t.Columns {
		var xs []float64
		for _, r := range t.Rows {
			if v, ok := r.Values[col]; ok {
				xs = append(xs, v)
			}
		}
		vals[col] = fidelity.GeoMean(xs)
	}
	return Row{Circuit: "GMean", Values: vals}
}

// Render returns an aligned plain-text table with a trailing GMean row.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s ===\n", t.Title)
	rows := append([]Row{}, t.Rows...)
	if len(rows) > 1 {
		rows = append(rows, t.GeoMeanRow())
	}
	width := len("circuit")
	for _, r := range rows {
		if len(r.Circuit) > width {
			width = len(r.Circuit)
		}
	}
	fmt.Fprintf(&b, "%-*s", width+2, "circuit")
	for _, c := range t.Columns {
		fmt.Fprintf(&b, "%16s", c)
	}
	b.WriteByte('\n')
	for _, r := range rows {
		fmt.Fprintf(&b, "%-*s", width+2, r.Circuit)
		for _, c := range t.Columns {
			v, ok := r.Values[c]
			if !ok {
				fmt.Fprintf(&b, "%16s", "-")
				continue
			}
			fmt.Fprintf(&b, "%16s", formatValue(v))
		}
		b.WriteByte('\n')
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

func formatValue(v float64) string {
	av := v
	if av < 0 {
		av = -av
	}
	switch {
	case av == 0:
		return "0"
	case av < 1e-4 || av >= 1e6:
		return fmt.Sprintf("%.3e", v)
	case av < 1:
		return fmt.Sprintf("%.4f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// CSV renders the table as comma-separated values (with a GMean row).
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString("circuit")
	for _, c := range t.Columns {
		fmt.Fprintf(&b, ",%s", c)
	}
	b.WriteByte('\n')
	rows := append([]Row{}, t.Rows...)
	if len(rows) > 1 {
		rows = append(rows, t.GeoMeanRow())
	}
	for _, r := range rows {
		b.WriteString(r.Circuit)
		for _, c := range t.Columns {
			if v, ok := r.Values[c]; ok {
				fmt.Fprintf(&b, ",%g", v)
			} else {
				b.WriteString(",")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Runner is an experiment entry point: it compiles the benchmark subset
// (nil = the experiment's default suite) through the engine described by cfg
// and returns the paper's tables.
type Runner func(ctx context.Context, cfg Config, subset []string) ([]*Table, error)

// Registry names every experiment the harness can run.
func Registry() []string {
	names := make([]string, 0, len(runners))
	for n := range runners {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// RunWith executes a named experiment through the parallel engine: per
// (circuit, compiler) compilations fan out over cfg.Parallel workers and
// shared compilations are served from the process-wide cache. The returned
// tables are identical for every worker count.
func RunWith(ctx context.Context, cfg Config, name string, subset []string) ([]*Table, error) {
	r, ok := runners[name]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", name, Registry())
	}
	return r(ctx, cfg, subset)
}

var runners = map[string]Runner{
	"table1":    Table1,
	"fig1c":     Fig1c,
	"fig8":      Fig8,
	"fig9":      Fig9,
	"fig10":     Fig10,
	"table2":    Table2,
	"fig11":     Fig11,
	"fig12":     Fig12,
	"fig13":     Fig13,
	"fig14":     Fig14,
	"multizone": MultiZone,
	"ftqc":      FTQC,
	"zair":      ZAIRStats,
	"advreuse":  AdvReuse,
	"sweep":     Sweep,
	"workloads": Workloads,
	"forge":     Forge,
	"nativeccz": NativeCCZ,
	"compilers": Compilers,
}
