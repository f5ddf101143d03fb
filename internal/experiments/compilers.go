package experiments

import (
	"context"
	"fmt"
	"time"

	"zac/internal/compiler"
)

// CompilerSweep compiles the benchmark subset through the named registry
// compilers (nil = every registered compiler) and reports total fidelity,
// circuit duration, and wall-clock compile time per compiler. It is the
// `zac-bench -compiler` entry point and doubles as a quick side-by-side of
// any new backend against the paper's compilers under their default
// evaluation setups.
func CompilerSweep(ctx context.Context, cfg Config, subset, compilers []string) ([]*Table, error) {
	benches, err := suite(subset)
	if err != nil {
		return nil, err
	}
	if len(compilers) == 0 {
		compilers = compiler.Names()
	}
	cols := make([]string, len(compilers))
	for i, name := range compilers {
		c, err := compiler.Get(name)
		if err != nil {
			return nil, err
		}
		cols[i] = c.Name()
	}
	fid := &Table{Title: "Compiler registry: total fidelity", Columns: cols}
	dur := &Table{Title: "Compiler registry: circuit duration (ms)", Columns: cols}
	cmp := &Table{Title: "Compiler registry: compile time (ms)", Columns: cols}
	res, err := mapRows(ctx, cfg, len(benches)*len(cols), func(k int) (naResult, error) {
		b, name := benches[k/len(cols)], cols[k%len(cols)]
		r, err := evalCompiler(ctx, cfg, name, b)
		if err != nil {
			return naResult{}, fmt.Errorf("%s/%s: %w", b.Name, name, err)
		}
		cfg.progressf("compilers: %s/%s", b.Name, name)
		return r, nil
	})
	if err != nil {
		return nil, err
	}
	for i, b := range benches {
		fRow, dRow, cRow := map[string]float64{}, map[string]float64{}, map[string]float64{}
		for j, col := range cols {
			r := res[i*len(cols)+j]
			fRow[col] = r.breakdown.Total
			dRow[col] = r.duration / 1000
			cRow[col] = float64(r.compile) / float64(time.Millisecond)
		}
		fid.AddRow(b.Name, fRow)
		dur.AddRow(b.Name, dRow)
		cmp.AddRow(b.Name, cRow)
	}
	return []*Table{fid, dur, cmp}, nil
}

// Compilers is the registry-sweep experiment over every registered
// compiler.
func Compilers(ctx context.Context, cfg Config, subset []string) ([]*Table, error) {
	return CompilerSweep(ctx, cfg, subset, nil)
}
