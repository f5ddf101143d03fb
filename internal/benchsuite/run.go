package benchsuite

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"zac/internal/benchsuite/stats"
	"zac/internal/engine"
)

// SchemaVersion is the record schema stamped into every store line, bumped
// on incompatible Record changes so old stores stay readable (readers skip
// newer-versioned lines they do not understand). History: v1 carried ns/op
// only; v2 added the b_per_op/allocs_per_op allocation vectors and the
// per-pass timing records (Kind "pass"). v1 lines parse unchanged — the new
// vectors are simply absent.
const SchemaVersion = 2

// Record is one matrix cell measured at one commit on one machine: the full
// per-repetition ns/op sample vector plus everything needed to decide,
// later, whether it may be compared with another record at all.
type Record struct {
	// Schema is the record format version (SchemaVersion at write time).
	Schema int `json:"schema"`
	// Case is the matrix cell name (Case.Name) or, for an ingested
	// benchmark, its package-qualified name (see Ingest).
	Case string `json:"case"`
	// Kind is the record's class (micro, compile or pass).
	Kind Kind `json:"kind"`
	// Commit is the VCS revision of the measured tree.
	Commit string `json:"commit"`
	// UnixTime is the capture time in seconds (caller-supplied so replays
	// and tests are deterministic).
	UnixTime int64 `json:"unix_time"`
	// Machine is the full machine fingerprint; MachineID its digest, the
	// store shard key and the gate's comparability check.
	Machine   Fingerprint `json:"machine"`
	MachineID string      `json:"machine_id"`
	// ArchFP is the arch.Fingerprint of the targeted architecture ("" for
	// kernels without one).
	ArchFP string `json:"arch_fp,omitempty"`
	// Warmup and InnerIters record how the sample was taken: Warmup
	// discarded repetitions, InnerIters operations per timed repetition
	// (for an ingested benchmark, its b.N).
	Warmup     int `json:"warmup"`
	InnerIters int `json:"inner_iters"`
	// Procs is the runtime.GOMAXPROCS the measurement ran under: the
	// ambient value for a matrix cell, the "-P" name suffix for an ingested
	// benchmark. The gate refuses to compare records whose Procs differ,
	// exactly like an architecture-fingerprint change. omitempty keeps
	// pre-existing store lines (which carry no field, i.e. 0 = unknown)
	// comparable with each other.
	Procs int `json:"gomaxprocs,omitempty"`
	// NsPerOp holds one per-operation nanosecond sample per timed
	// repetition — the raw material of the Mann-Whitney gate.
	NsPerOp []float64 `json:"ns_per_op"`
	// BPerOp and AllocsPerOp hold one per-operation heap-bytes and
	// heap-allocations sample per timed repetition (runtime.MemStats deltas
	// around the rep, read outside the timed region). They make allocation
	// behavior a first-class measured dimension next to wall-clock; absent
	// on schema-1 records and on pass records.
	BPerOp      []float64 `json:"b_per_op,omitempty"`
	AllocsPerOp []float64 `json:"allocs_per_op,omitempty"`
}

// RunConfig controls one matrix execution.
type RunConfig struct {
	// Warmup is the number of untimed repetitions discarded before
	// sampling (default 1).
	Warmup int
	// Reps is the number of timed repetitions, i.e. the sample size per
	// cell (default 5 — the smallest the statistical gate accepts).
	Reps int
	// Workers bounds matrix-level parallelism through the engine pool.
	// The default 1 runs cells sequentially, the only configuration whose
	// timings are trustworthy; higher values are for smoke runs where
	// only plumbing is under test.
	Workers int
	// Commit stamps the records' VCS revision ("unknown" when empty).
	Commit string
	// Now stamps the records' capture time (time.Now when zero).
	Now time.Time
	// Progress, when non-nil, receives one line per completed cell.
	Progress func(format string, args ...any)
}

// normalized fills the config's defaults.
func (c RunConfig) normalized() RunConfig {
	if c.Warmup <= 0 {
		c.Warmup = 1
	}
	if c.Reps <= 0 {
		c.Reps = 5
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.Commit == "" {
		c.Commit = "unknown"
	}
	if c.Now.IsZero() {
		c.Now = time.Now()
	}
	return c
}

// Run executes every case of the matrix under cfg and returns the records
// in matrix order regardless of scheduling (the engine assembles by index):
// one primary Record per case, followed — for cases exposing a pass probe —
// by one "<case>/pass/<name>" Record (Kind "pass") per pipeline pass, so a
// regression flagged by the gate names the pass that slowed down, not just
// the compile. Each record carries the process-wide machine fingerprint and
// cfg's commit stamp.
func Run(ctx context.Context, cases []Case, cfg RunConfig) ([]Record, error) {
	cfg = cfg.normalized()
	fp := Machine()
	perCase, err := engine.Map(ctx, cfg.Workers, len(cases), func(i int) ([]Record, error) {
		recs, err := runCase(ctx, cases[i], cfg, fp)
		if err != nil {
			return nil, fmt.Errorf("benchsuite: %s: %w", cases[i].Name, err)
		}
		if cfg.Progress != nil {
			cfg.Progress("%-60s %3d reps  median %12.0f ns/op", recs[0].Case, len(recs[0].NsPerOp), stats.Median(recs[0].NsPerOp))
		}
		return recs, nil
	})
	if err != nil {
		return nil, err
	}
	var records []Record
	for _, recs := range perCase {
		records = append(records, recs...)
	}
	return records, nil
}

// runCase sets up and times one cell: Warmup discarded repetitions, then
// Reps timed ones of InnerIters operations each. Around every timed
// repetition it reads runtime.MemStats (outside the timed region, so the
// reads never perturb the wall-clock sample) to derive per-op allocation
// vectors, and — when the case exposes a pass probe — collects the per-pass
// durations of each repetition into satellite pass records.
func runCase(ctx context.Context, c Case, cfg RunConfig, fp Fingerprint) ([]Record, error) {
	op, err := c.setup()
	if err != nil {
		return nil, err
	}
	procs := runtime.GOMAXPROCS(0)
	inner := c.InnerIters
	if inner <= 0 {
		inner = 1
	}
	for w := 0; w < cfg.Warmup; w++ {
		if err := opN(ctx, op, inner); err != nil {
			return nil, err
		}
	}
	samples := make([]float64, 0, cfg.Reps)
	bytesPer := make([]float64, 0, cfg.Reps)
	allocsPer := make([]float64, 0, cfg.Reps)
	passSamples := map[string][]float64{}
	var passOrder []string
	var msBefore, msAfter runtime.MemStats
	for r := 0; r < cfg.Reps; r++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		runtime.ReadMemStats(&msBefore)
		start := time.Now()
		if err := opN(ctx, op, inner); err != nil {
			return nil, err
		}
		ns := float64(time.Since(start).Nanoseconds()) / float64(inner)
		runtime.ReadMemStats(&msAfter)
		samples = append(samples, ns)
		// TotalAlloc and Mallocs are monotonic, so concurrent GC cannot make
		// the deltas go backwards.
		bytesPer = append(bytesPer, float64(msAfter.TotalAlloc-msBefore.TotalAlloc)/float64(inner))
		allocsPer = append(allocsPer, float64(msAfter.Mallocs-msBefore.Mallocs)/float64(inner))
		if c.passes != nil {
			// The probe reports the last operation of the repetition — a
			// per-op sample by construction, no inner division needed.
			for _, pt := range c.passes() {
				if _, seen := passSamples[pt.Pass]; !seen {
					passOrder = append(passOrder, pt.Pass)
				}
				passSamples[pt.Pass] = append(passSamples[pt.Pass],
					float64(pt.Duration.Nanoseconds()))
			}
		}
	}
	stamp := func(name string, kind Kind, ns []float64) Record {
		return Record{
			Schema:     SchemaVersion,
			Case:       name,
			Kind:       kind,
			Commit:     cfg.Commit,
			UnixTime:   cfg.Now.Unix(),
			Machine:    fp,
			MachineID:  fp.ID(),
			ArchFP:     c.ArchFP,
			Warmup:     cfg.Warmup,
			InnerIters: inner,
			Procs:      procs,
			NsPerOp:    ns,
		}
	}
	primary := stamp(c.Name, c.Kind, samples)
	primary.BPerOp = bytesPer
	primary.AllocsPerOp = allocsPer
	records := []Record{primary}
	for _, pass := range passOrder {
		records = append(records, stamp(c.Name+"/pass/"+pass, KindPass, passSamples[pass]))
	}
	return records, nil
}

// opN runs op n times, stopping at the first error.
func opN(ctx context.Context, op func(context.Context) error, n int) error {
	for i := 0; i < n; i++ {
		if err := op(ctx); err != nil {
			return err
		}
	}
	return nil
}
