package experiments

import (
	"context"

	"zac/internal/arch"
	"zac/internal/bench"
	"zac/internal/compiler"
	"zac/internal/core"
)

// NativeCCZ evaluates the §III multi-trap-site capability: the
// Toffoli-heavy benchmarks compiled with the standard 6-CZ decomposition on
// the reference architecture versus native CCZ gates on the three-trap-site
// variant (ReferenceTriple). Fewer entangling gates and Rydberg stages
// trade against the wider site pitch.
func NativeCCZ(ctx context.Context, cfg Config, subset []string) ([]*Table, error) {
	names := subset
	if len(names) == 0 {
		names = []string{"multiply_n13", "seca_n11", "knn_n31", "swap_test_n25"}
	}
	benches := make([]bench.Benchmark, len(names))
	for i, name := range names {
		b, err := bench.ByName(name)
		if err != nil {
			return nil, err
		}
		benches[i] = b
	}
	fid := &Table{
		Title:   "Extension: native CCZ on three-trap sites (fidelity)",
		Columns: []string{"decomposed", "nativeCCZ"},
	}
	stages := &Table{
		Title:   "Extension: native CCZ — Rydberg stages",
		Columns: []string{"decomposed", "nativeCCZ"},
	}
	ref := arch.Reference()
	triple := arch.ReferenceTriple()
	zc, err := compiler.Get("zac")
	if err != nil {
		return nil, err
	}
	results, err := mapRows(ctx, cfg, len(benches)*2, func(k int) (*core.Result, error) {
		b, native := benches[k/2], k%2 == 1
		if native {
			r, err := cachedCompile(ctx, cfg, zc, compiler.Options{SARestarts: cfg.SARestarts, Workers: cfg.Workers},
				nativeCCZInput(b), triple.TotalSites(), triple)
			if err != nil {
				return nil, err
			}
			cfg.progressf("nativeccz: %s/native", b.Name)
			return r, nil
		}
		r, err := compileZAC(ctx, cfg, b, ref, core.Default())
		if err != nil {
			return nil, err
		}
		cfg.progressf("nativeccz: %s/decomposed", b.Name)
		return r, nil
	})
	if err != nil {
		return nil, err
	}
	for i, b := range benches {
		plain, native := results[i*2], results[i*2+1]
		fid.AddRow(b.Name, map[string]float64{
			"decomposed": plain.Breakdown.Total, "nativeCCZ": native.Breakdown.Total,
		})
		stages.AddRow(b.Name, map[string]float64{
			"decomposed": float64(plain.NumRydbergStages), "nativeCCZ": float64(native.NumRydbergStages),
		})
	}
	return []*Table{fid, stages}, nil
}
