package experiments

import (
	"context"

	"zac/internal/bench"
	"zac/internal/circuit"
	"zac/internal/workload"
)

// forgeCols are the neutral-atom compilers the workload-forge sweep
// compares (the same trio as the static extension study).
var forgeCols = []string{ColEnola, ColNALAC, ColZAC}

// defaultForgeSpecs is the sweep run when no specs are given: one pinned
// spec per registered family, at sizes comparable to the paper suite.
func defaultForgeSpecs() []string {
	return []string{
		"clifford:n=24,gates=220,t=20,seed=11",
		"rb:n=24,depth=16,seed=11",
		"shuffle:n=32,depth=12,seed=11",
		"qaoa:n=32,p=2,seed=11",
		"ising:n=64,layers=2",
		"hiqp:logblocks=5,rounds=2",
	}
}

// forgeBenchmark adapts one workload spec into a benchmark entry the
// experiment engine can fan out. The canonical spec becomes the benchmark
// name, so every compile cache key is keyed by the exact workload. Generation happens once here; Build hands
// out clones of the deterministic circuit.
func forgeBenchmark(spec string) (bench.Benchmark, error) {
	s, err := workload.Parse(spec)
	if err != nil {
		return bench.Benchmark{}, err
	}
	c, err := s.Generate()
	if err != nil {
		return bench.Benchmark{}, err
	}
	return bench.Benchmark{
		Name:      c.Name, // the canonical spec
		NumQubits: c.NumQubits,
		Build:     func() *circuit.Circuit { return c.Clone() },
	}, nil
}

// Forge sweeps workload-forge specs (subset entries; nil = one pinned spec
// per family) across the neutral-atom compiler columns — the generated
// counterpart of the `workloads` extension study, reaching widths, depths,
// and structures the static corpus never does. It is the `zac-bench
// -workload` entry point. Subset entries that are not workload specs (the
// static benchmark names an `-experiment all -circuits …` run passes to
// every experiment) are skipped, mirroring how the `workloads` study
// filters its fixed family list; an invalid spec for a known family is
// still an error.
func Forge(ctx context.Context, cfg Config, subset []string) ([]*Table, error) {
	specs := subset
	if len(specs) == 0 {
		specs = defaultForgeSpecs()
	} else {
		specs = nil
		for _, s := range subset {
			if workload.IsSpec(s) {
				specs = append(specs, s)
			}
		}
	}
	benches := make([]bench.Benchmark, len(specs))
	for i, spec := range specs {
		b, err := forgeBenchmark(spec)
		if err != nil {
			return nil, err
		}
		benches[i] = b
	}
	fid := &Table{Title: "Workload forge: generated families (fidelity)", Columns: forgeCols}
	dur := &Table{Title: "Workload forge: generated families (duration ms)", Columns: forgeCols}
	res, err := benchCols(ctx, cfg, "forge", benches, forgeCols)
	if err != nil {
		return nil, err
	}
	for i, b := range benches {
		fRow, dRow := map[string]float64{}, map[string]float64{}
		for col, v := range res[i] {
			fRow[col] = v.breakdown.Total
			dRow[col] = v.duration / 1000
		}
		fid.AddRow(b.Name, fRow)
		dur.AddRow(b.Name, dRow)
	}
	return []*Table{fid, dur}, nil
}
