package experiments

import (
	"context"

	"zac/internal/arch"
	"zac/internal/core"
	"zac/internal/place"
)

// AdvReuse evaluates the paper's §X future-work optimization — movements
// within entanglement zones for more advanced qubit reuse — against stock
// ZAC: fidelity, atom transfers, and duration per circuit. This is the
// ablation the paper proposes but does not evaluate; DESIGN.md lists it as
// an extension experiment.
func AdvReuse(ctx context.Context, cfg Config, subset []string) ([]*Table, error) {
	benches, err := suite(subset)
	if err != nil {
		return nil, err
	}
	a := arch.Reference()
	fid := &Table{
		Title:   "Extension: advanced in-zone reuse (paper §X) — fidelity",
		Columns: []string{"ZAC", "ZAC+advReuse"},
	}
	tran := &Table{
		Title:   "Extension: advanced in-zone reuse — atom transfers",
		Columns: []string{"ZAC", "ZAC+advReuse"},
	}
	dur := &Table{
		Title:   "Extension: advanced in-zone reuse — duration (ms)",
		Columns: []string{"ZAC", "ZAC+advReuse"},
	}
	advOpts := core.Options{Place: func() place.Options {
		o := place.Default()
		o.AdvancedReuse = true
		return o
	}()}
	variants := []struct {
		label string
		opts  core.Options
	}{
		{core.SettingSADynPlaceReuse, core.Default()},
		{"advReuse", advOpts},
	}
	results, err := mapRows(ctx, cfg, len(benches)*len(variants), func(k int) (*core.Result, error) {
		b, v := benches[k/len(variants)], variants[k%len(variants)]
		r, err := compileZAC(ctx, cfg, b, a, v.opts)
		if err != nil {
			return nil, err
		}
		cfg.progressf("advreuse: %s/%s", b.Name, v.label)
		return r, nil
	})
	if err != nil {
		return nil, err
	}
	for i, b := range benches {
		base, adv := results[i*2], results[i*2+1]
		fid.AddRow(b.Name, map[string]float64{
			"ZAC": base.Breakdown.Total, "ZAC+advReuse": adv.Breakdown.Total,
		})
		tran.AddRow(b.Name, map[string]float64{
			"ZAC": float64(base.Stats.Transfers), "ZAC+advReuse": float64(adv.Stats.Transfers),
		})
		dur.AddRow(b.Name, map[string]float64{
			"ZAC": base.Duration / 1000, "ZAC+advReuse": adv.Duration / 1000,
		})
	}
	return []*Table{fid, tran, dur}, nil
}

// Sweep evaluates ZAC's tunable placement parameters — candidate-box
// expansion δ, return-candidate radius k, lookahead weight α, and SA
// iteration budget — on a representative subset, reporting geomean fidelity
// per configuration. This is the design-choice ablation DESIGN.md calls out
// for the cost-function knobs of §V.
func Sweep(ctx context.Context, cfg Config, subset []string) ([]*Table, error) {
	benches, err := suite(subset)
	if err != nil {
		return nil, err
	}
	a := arch.Reference()
	type swCfg struct {
		name string
		mut  func(o *place.Options)
	}
	groups := []struct {
		title string
		cfgs  []swCfg
	}{
		{"Sweep: candidate expansion δ", []swCfg{
			{"δ=1", func(o *place.Options) { o.Expansion = 1 }},
			{"δ=2", func(o *place.Options) { o.Expansion = 2 }},
			{"δ=4", func(o *place.Options) { o.Expansion = 4 }},
		}},
		{"Sweep: return neighborhood k", []swCfg{
			{"k=1", func(o *place.Options) { o.KNeighbors = 1 }},
			{"k=2", func(o *place.Options) { o.KNeighbors = 2 }},
			{"k=4", func(o *place.Options) { o.KNeighbors = 4 }},
		}},
		{"Sweep: lookahead α", []swCfg{
			{"α=0", func(o *place.Options) { o.Alpha = -1 }}, // fill() keeps non-zero; -1 disables boost
			{"α=0.1", func(o *place.Options) { o.Alpha = 0.1 }},
			{"α=0.5", func(o *place.Options) { o.Alpha = 0.5 }},
		}},
		{"Sweep: SA iterations", []swCfg{
			{"SA=100", func(o *place.Options) { o.SAIterations = 100 }},
			{"SA=1000", func(o *place.Options) { o.SAIterations = 1000 }},
			{"SA=5000", func(o *place.Options) { o.SAIterations = 5000 }},
		}},
	}

	// Flatten every (group, config, bench) cell into one pool run so the
	// whole sweep shares the worker budget.
	type task struct {
		g, c, b int
	}
	var tasks []task
	for g := range groups {
		for c := range groups[g].cfgs {
			for b := range benches {
				tasks = append(tasks, task{g, c, b})
			}
		}
	}
	vals, err := mapRows(ctx, cfg, len(tasks), func(k int) (float64, error) {
		tk := tasks[k]
		c, b := groups[tk.g].cfgs[tk.c], benches[tk.b]
		o := place.Default()
		c.mut(&o)
		r, err := compileZAC(ctx, cfg, b, a, core.Options{Place: o})
		if err != nil {
			return 0, err
		}
		cfg.progressf("sweep: %s/%s", b.Name, c.name)
		return r.Breakdown.Total, nil
	})
	if err != nil {
		return nil, err
	}
	byCell := map[task]float64{}
	for k, tk := range tasks {
		byCell[tk] = vals[k]
	}
	var tables []*Table
	for g, grp := range groups {
		var cols []string
		for _, c := range grp.cfgs {
			cols = append(cols, c.name)
		}
		t := &Table{Title: grp.title, Columns: cols}
		for b, bm := range benches {
			row := map[string]float64{}
			for c, sw := range grp.cfgs {
				row[sw.name] = byCell[task{g, c, b}]
			}
			t.AddRow(bm.Name, row)
		}
		tables = append(tables, t)
	}
	return tables, nil
}
