package experiments

import (
	"context"
	"fmt"

	"zac/internal/arch"
	"zac/internal/bench"
	"zac/internal/compiler"
	"zac/internal/core"
	"zac/internal/fidelity"
	"zac/internal/ftqc"
	"zac/internal/workload"
)

// Column names shared with the paper's legends.
const (
	ColSCHeron  = "SC-Heron"
	ColSCGrid   = "SC-Grid"
	ColAtomique = "Mono-Atomique"
	ColEnola    = "Mono-Enola"
	ColNALAC    = "Zoned-NALAC"
	ColZAC      = "Zoned-ZAC"
)

// naCols are the four neutral-atom compiler columns in the paper's order.
var naCols = []string{ColAtomique, ColEnola, ColNALAC, ColZAC}

// suite resolves a benchmark subset (nil = the full 17-circuit suite).
// Entries that name a workload-forge spec (e.g. "rb:n=32,depth=20,seed=7" or
// "spec:shuffle") resolve through the generator registry, so every
// experiment accepts generated circuits alongside the static suite.
func suite(subset []string) ([]bench.Benchmark, error) {
	if len(subset) == 0 {
		return bench.All(), nil
	}
	var out []bench.Benchmark
	for _, name := range subset {
		if workload.IsSpec(name) {
			b, err := forgeBenchmark(name)
			if err != nil {
				return nil, err
			}
			out = append(out, b)
			continue
		}
		b, err := bench.ByName(name)
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}

// benchCols runs one pool task per (benchmark, compiler column) pair and
// returns results[benchIdx][col], assembled in input order.
func benchCols(ctx context.Context, cfg Config, exp string, benches []bench.Benchmark, cols []string) ([]map[string]naResult, error) {
	flat, err := mapRows(ctx, cfg, len(benches)*len(cols), func(k int) (naResult, error) {
		b, col := benches[k/len(cols)], cols[k%len(cols)]
		r, err := evalCol(ctx, cfg, col, b)
		if err != nil {
			return naResult{}, err
		}
		cfg.progressf("%s: %s/%s", exp, b.Name, col)
		return r, nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]map[string]naResult, len(benches))
	for i := range benches {
		out[i] = map[string]naResult{}
		for j, col := range cols {
			out[i][col] = flat[i*len(cols)+j]
		}
	}
	return out, nil
}

// Table1 prints the hardware parameters (paper Table I).
func Table1(ctx context.Context, cfg Config, subset []string) ([]*Table, error) {
	t := &Table{
		Title:   "Table I: hardware parameters",
		Columns: []string{"f2", "f1", "T1q(us)", "T2q(us)", "T2(us)"},
	}
	add := func(name string, p fidelity.Params) {
		t.AddRow(name, map[string]float64{
			"f2": p.F2, "f1": p.F1, "T1q(us)": p.T1Q, "T2q(us)": p.T2Q, "T2(us)": p.T2,
		})
	}
	add("NeutralAtom", fidelity.NeutralAtom())
	add("SC-Heron", fidelity.SCHeron())
	add("SC-Grid", fidelity.SCGrid())
	t.Notes = append(t.Notes,
		"neutral atom extras: fexc=0.9975 ftran=0.999 Ttran=15us (paper §VII-B)")
	return []*Table{t}, nil
}

// Fig1c reproduces the monolithic fidelity breakdown of Fig. 1c: the
// excitation of idle qubits dominates even with optimal Rydberg exposures.
func Fig1c(ctx context.Context, cfg Config, subset []string) ([]*Table, error) {
	benches, err := suite(subset)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "Fig 1c: monolithic (Enola) fidelity breakdown",
		Columns: []string{"2Q-pure", "excitation", "transfer", "decoherence", "1Q", "total"},
	}
	mono := arch.Monolithic()
	enola, err := compiler.Get("enola")
	if err != nil {
		return nil, err
	}
	rows, err := mapRows(ctx, cfg, len(benches), func(i int) (fidelity.Breakdown, error) {
		r, err := cachedCompile(ctx, cfg, enola, compiler.Options{}, benchInput(benches[i]), mono.TotalSites(), mono)
		if err != nil {
			return fidelity.Breakdown{}, err
		}
		cfg.progressf("fig1c: %s", benches[i].Name)
		return r.Breakdown, nil
	})
	if err != nil {
		return nil, err
	}
	for i, b := range benches {
		t.AddRow(b.Name, map[string]float64{
			"2Q-pure":     rows[i].TwoQ,
			"excitation":  rows[i].Excite,
			"transfer":    rows[i].Transfer,
			"decoherence": rows[i].Decohere,
			"1Q":          rows[i].OneQ,
			"total":       rows[i].Total,
		})
	}
	t.Notes = append(t.Notes, "side-effect (excitation) noise should dominate — compare columns")
	return []*Table{t}, nil
}

// Fig8 reproduces the six-way architecture comparison.
func Fig8(ctx context.Context, cfg Config, subset []string) ([]*Table, error) {
	benches, err := suite(subset)
	if err != nil {
		return nil, err
	}
	cols := []string{ColSCHeron, ColSCGrid, ColAtomique, ColEnola, ColNALAC, ColZAC}
	t := &Table{
		Title:   "Fig 8: circuit fidelity across architectures",
		Columns: cols,
	}
	res, err := benchCols(ctx, cfg, "fig8", benches, cols)
	if err != nil {
		return nil, err
	}
	for i, b := range benches {
		row := map[string]float64{}
		for col, v := range res[i] {
			row[col] = v.breakdown.Total
		}
		t.AddRow(fmt.Sprintf("%s(%d,%d)", b.Name, b.Paper2Q, b.Paper1Q), row)
	}
	return []*Table{t}, nil
}

// Fig9 reproduces the fidelity breakdown comparison for the four
// neutral-atom compilers: 2Q gates (including excitation), atom transfer,
// and decoherence.
func Fig9(ctx context.Context, cfg Config, subset []string) ([]*Table, error) {
	benches, err := suite(subset)
	if err != nil {
		return nil, err
	}
	twoQ := &Table{Title: "Fig 9a: 2Q-gate fidelity (incl. excitation)", Columns: naCols}
	tran := &Table{Title: "Fig 9b: atom-transfer fidelity", Columns: naCols}
	deco := &Table{Title: "Fig 9c: decoherence fidelity", Columns: naCols}
	res, err := benchCols(ctx, cfg, "fig9", benches, naCols)
	if err != nil {
		return nil, err
	}
	for i, b := range benches {
		r2, rt, rd := map[string]float64{}, map[string]float64{}, map[string]float64{}
		for col, v := range res[i] {
			r2[col] = v.breakdown.TwoQCombined()
			rt[col] = v.breakdown.Transfer
			rd[col] = v.breakdown.Decohere
		}
		twoQ.AddRow(b.Name, r2)
		tran.AddRow(b.Name, rt)
		deco.AddRow(b.Name, rd)
	}
	return []*Table{twoQ, tran, deco}, nil
}

// Fig10 reproduces the circuit-duration comparison (milliseconds).
func Fig10(ctx context.Context, cfg Config, subset []string) ([]*Table, error) {
	benches, err := suite(subset)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "Fig 10: circuit duration (ms)",
		Columns: naCols,
	}
	res, err := benchCols(ctx, cfg, "fig10", benches, naCols)
	if err != nil {
		return nil, err
	}
	for i, b := range benches {
		row := map[string]float64{}
		for col, v := range res[i] {
			row[col] = v.duration / 1000
		}
		t.AddRow(b.Name, row)
	}
	return []*Table{t}, nil
}

// Table2 reproduces the fidelity breakdown and average duration for the
// superconducting grid architecture and ZAC.
func Table2(ctx context.Context, cfg Config, subset []string) ([]*Table, error) {
	benches, err := suite(subset)
	if err != nil {
		return nil, err
	}
	zoned := arch.Reference()

	type pair struct {
		zac *core.Result
		sc  naResult
	}
	pairs, err := mapRows(ctx, cfg, len(benches), func(i int) (pair, error) {
		zr, err := compileZAC(ctx, cfg, benches[i], zoned, core.Default())
		if err != nil {
			return pair{}, err
		}
		gr, err := evalCompiler(ctx, cfg, "sc-grid", benches[i])
		if err != nil {
			return pair{}, err
		}
		cfg.progressf("table2: %s", benches[i].Name)
		return pair{zr, gr}, nil
	})
	if err != nil {
		return nil, err
	}

	type agg struct {
		twoQ, oneQ, tran, deco, total []float64
		dur                           float64
	}
	var scA, zacA agg
	for _, p := range pairs {
		zacA.twoQ = append(zacA.twoQ, p.zac.Breakdown.TwoQCombined())
		zacA.oneQ = append(zacA.oneQ, p.zac.Breakdown.OneQ)
		zacA.tran = append(zacA.tran, p.zac.Breakdown.Transfer)
		zacA.deco = append(zacA.deco, p.zac.Breakdown.Decohere)
		zacA.total = append(zacA.total, p.zac.Breakdown.Total)
		zacA.dur += p.zac.Duration

		scA.twoQ = append(scA.twoQ, p.sc.breakdown.TwoQ)
		scA.oneQ = append(scA.oneQ, p.sc.breakdown.OneQ)
		scA.deco = append(scA.deco, p.sc.breakdown.Decohere)
		scA.total = append(scA.total, p.sc.breakdown.Total)
		scA.dur += p.sc.duration
	}
	n := float64(len(benches))
	t := &Table{
		Title:   "Table II: fidelity breakdown and average circuit duration",
		Columns: []string{"2Qgate", "1Qgate", "Transfer", "Decohere", "Total", "AvgDur(us)"},
	}
	t.AddRow("SC-Grid", map[string]float64{
		"2Qgate": fidelity.GeoMean(scA.twoQ), "1Qgate": fidelity.GeoMean(scA.oneQ),
		"Decohere": fidelity.GeoMean(scA.deco), "Total": fidelity.GeoMean(scA.total),
		"AvgDur(us)": scA.dur / n,
	})
	t.AddRow("ZAC", map[string]float64{
		"2Qgate": fidelity.GeoMean(zacA.twoQ), "1Qgate": fidelity.GeoMean(zacA.oneQ),
		"Transfer": fidelity.GeoMean(zacA.tran), "Decohere": fidelity.GeoMean(zacA.deco),
		"Total": fidelity.GeoMean(zacA.total), "AvgDur(us)": zacA.dur / n,
	})
	return []*Table{t}, nil
}

// ablationSettings are the four compiler presets of the paper's Fig. 11/12.
var ablationSettings = []string{core.SettingVanilla, core.SettingDynPlace, core.SettingDynPlaceReuse, core.SettingSADynPlaceReuse}

// Fig11 reproduces the ablation study over the four compiler settings.
func Fig11(ctx context.Context, cfg Config, subset []string) ([]*Table, error) {
	benches, err := suite(subset)
	if err != nil {
		return nil, err
	}
	t := &Table{Title: "Fig 11: ZAC technique ablation (fidelity)", Columns: ablationSettings}
	vals, err := mapRows(ctx, cfg, len(benches)*len(ablationSettings), func(k int) (float64, error) {
		b, s := benches[k/len(ablationSettings)], ablationSettings[k%len(ablationSettings)]
		r, err := evalCompiler(ctx, cfg, s, b)
		if err != nil {
			return 0, fmt.Errorf("%s/%s: %w", b.Name, s, err)
		}
		cfg.progressf("fig11: %s/%s", b.Name, s)
		return r.breakdown.Total, nil
	})
	if err != nil {
		return nil, err
	}
	for i, b := range benches {
		row := map[string]float64{}
		for j, s := range ablationSettings {
			row[s] = vals[i*len(ablationSettings)+j]
		}
		t.AddRow(b.Name, row)
	}
	return []*Table{t}, nil
}

// Fig12 reproduces the compilation time vs fidelity trade-off: average
// compile seconds and geomean fidelity per compiler/setting. Because the
// figure reports wall-clock compile time, every cell bypasses the
// compilation cache — a cached entry's timestamp would reflect whichever
// experiment happened to populate it, making the column depend on run
// order and cache state.
func Fig12(ctx context.Context, cfg Config, subset []string) ([]*Table, error) {
	benches, err := suite(subset)
	if err != nil {
		return nil, err
	}
	cfg.NoCache = true
	t := &Table{
		Title:   "Fig 12: compilation time vs fidelity",
		Columns: []string{"time(s)", "fidelity"},
	}
	// Row configurations: the four ZAC settings (registry aliases), then the
	// three NA baselines.
	type rowCfg struct {
		label    string
		compiler string
	}
	var rcs []rowCfg
	for _, s := range ablationSettings {
		rcs = append(rcs, rowCfg{label: "ZAC-" + s, compiler: s})
	}
	for _, col := range []string{ColAtomique, ColEnola, ColNALAC} {
		rcs = append(rcs, rowCfg{label: col, compiler: colCompilers[col]})
	}
	type cell struct {
		secs float64
		fid  float64
	}
	cells, err := mapRows(ctx, cfg, len(rcs)*len(benches), func(k int) (cell, error) {
		rc, b := rcs[k/len(benches)], benches[k%len(benches)]
		r, err := evalCompiler(ctx, cfg, rc.compiler, b)
		if err != nil {
			return cell{}, err
		}
		cfg.progressf("fig12: %s/%s", b.Name, rc.label)
		return cell{r.compile.Seconds(), r.breakdown.Total}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, rc := range rcs {
		var secs float64
		var fids []float64
		for j := range benches {
			c := cells[i*len(benches)+j]
			secs += c.secs
			fids = append(fids, c.fid)
		}
		t.AddRow(rc.label, map[string]float64{
			"time(s)": secs / float64(len(benches)), "fidelity": fidelity.GeoMean(fids),
		})
	}
	t.Notes = append(t.Notes,
		"compile times are wall-clock; run with -parallel 1 for contention-free timing")
	return []*Table{t}, nil
}

// Fig13 reproduces the optimality study: ZAC against the perfect-movement,
// perfect-placement and perfect-reuse upper bounds.
func Fig13(ctx context.Context, cfg Config, subset []string) ([]*Table, error) {
	benches, err := suite(subset)
	if err != nil {
		return nil, err
	}
	a := arch.Reference()
	t := &Table{
		Title:   "Fig 13: optimality analysis (fidelity)",
		Columns: []string{"PerfectReuse", "PerfectPlacement", "PerfectMovement", "ZAC"},
	}
	rows, err := mapRows(ctx, cfg, len(benches), func(i int) (map[string]float64, error) {
		b := benches[i]
		r, err := compileZAC(ctx, cfg, b, a, core.Default())
		if err != nil {
			return nil, err
		}
		cfg.progressf("fig13: %s", b.Name)
		return map[string]float64{
			"PerfectReuse":     core.PerfectReuse(a, r.Staged, r.Plan).Total,
			"PerfectPlacement": core.PerfectPlacement(a, r.Staged, r.Plan).Total,
			"PerfectMovement":  core.PerfectMovement(a, r.Staged, r.Plan).Total,
			"ZAC":              r.Breakdown.Total,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, b := range benches {
		t.AddRow(b.Name, rows[i])
	}
	return []*Table{t}, nil
}

// Fig14 reproduces the multi-AOD study (1–4 AODs).
func Fig14(ctx context.Context, cfg Config, subset []string) ([]*Table, error) {
	benches, err := suite(subset)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "Fig 14: fidelity vs AOD count",
		Columns: []string{"1AOD", "2AOD", "3AOD", "4AOD"},
	}
	const nAODs = 4
	vals, err := mapRows(ctx, cfg, len(benches)*nAODs, func(k int) (float64, error) {
		b, n := benches[k/nAODs], k%nAODs+1
		a := arch.WithAODs(arch.Reference(), n)
		r, err := compileZAC(ctx, cfg, b, a, core.Default())
		if err != nil {
			return 0, err
		}
		cfg.progressf("fig14: %s/%dAOD", b.Name, n)
		return r.Breakdown.Total, nil
	})
	if err != nil {
		return nil, err
	}
	for i, b := range benches {
		row := map[string]float64{}
		for n := 1; n <= nAODs; n++ {
			row[fmt.Sprintf("%dAOD", n)] = vals[i*nAODs+n-1]
		}
		t.AddRow(b.Name, row)
	}
	return []*Table{t}, nil
}

// MultiZone reproduces §VII-H: ising_n98 on Arch1 (one 6×10 zone) vs Arch2
// (two 3×10 zones flanking the storage zone).
func MultiZone(ctx context.Context, cfg Config, subset []string) ([]*Table, error) {
	b, err := bench.ByName("ising_n98")
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "Sec VII-H: multiple entanglement zones (ising_n98)",
		Columns: []string{"fidelity", "duration(ms)"},
	}
	cases := []struct {
		name string
		a    *arch.Architecture
	}{
		{"Arch1-1zone", arch.Arch1Small()},
		{"Arch2-2zones", arch.Arch2TwoZones()},
	}
	rows, err := mapRows(ctx, cfg, len(cases), func(i int) (map[string]float64, error) {
		tc := cases[i]
		r, err := compileZAC(ctx, cfg, b, tc.a, core.Default())
		if err != nil {
			return nil, fmt.Errorf("%s: %w", tc.name, err)
		}
		cfg.progressf("multizone: %s", tc.name)
		return map[string]float64{
			"fidelity": r.Breakdown.Total, "duration(ms)": r.Duration / 1000,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, tc := range cases {
		t.AddRow(tc.name, rows[i])
	}
	t.Notes = append(t.Notes, "paper: Arch1 fidelity 0.041 / 23.25ms; Arch2 0.047 (+15%) / 21.63ms (−8%)")
	return []*Table{t}, nil
}

// FTQC reproduces §VIII: the 128-block hIQP compilation.
func FTQC(ctx context.Context, cfg Config, subset []string) ([]*Table, error) {
	res, err := cached(cfg, "ftqc|hiqp128", func() (*ftqc.Result, error) {
		return ftqc.Compile(ftqc.ScaledUp(), arch.Logical832())
	})
	if err != nil {
		return nil, err
	}
	cfg.progressf("ftqc: hIQP-128")
	t := &Table{
		Title:   "Sec VIII: hIQP on [[8,3,2]] blocks (logical-level ZAC)",
		Columns: []string{"blocks", "logicalQubits", "transversalGates", "rydbergStages", "duration(ms)"},
	}
	t.AddRow("hIQP-128", map[string]float64{
		"blocks":           float64(res.Spec.NumBlocks),
		"logicalQubits":    float64(res.Spec.NumLogicalQubits()),
		"transversalGates": float64(res.TransversalGates),
		"rydbergStages":    float64(res.NumRydbergStages),
		"duration(ms)":     res.DurationMS,
	})
	t.Notes = append(t.Notes, "paper: 35 Rydberg stages, 117.847 ms physical duration")
	return []*Table{t}, nil
}

// ZAIRStats reproduces the §IX instruction-density metrics: ZAIR
// instructions per gate and machine instructions per gate.
func ZAIRStats(ctx context.Context, cfg Config, subset []string) ([]*Table, error) {
	benches, err := suite(subset)
	if err != nil {
		return nil, err
	}
	a := arch.Reference()
	t := &Table{
		Title:   "Sec IX: ZAIR instruction density",
		Columns: []string{"zairPerGate", "machinePerGate"},
	}
	rows, err := mapRows(ctx, cfg, len(benches), func(i int) (map[string]float64, error) {
		b := benches[i]
		r, err := compileZAC(ctx, cfg, b, a, core.Default())
		if err != nil {
			return nil, err
		}
		one, two := r.Staged.GateCounts()
		gates := float64(one + two)
		stats := r.Program.CountStats()
		cfg.progressf("zair: %s", b.Name)
		return map[string]float64{
			"zairPerGate":    float64(r.Program.NumZAIRInstructions()) / gates,
			"machinePerGate": float64(stats.MachineInsts) / gates,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, b := range benches {
		t.AddRow(b.Name, rows[i])
	}
	t.Notes = append(t.Notes, "paper geomeans: 0.85 ZAIR inst/gate, 1.77 machine inst/gate")
	return []*Table{t}, nil
}
