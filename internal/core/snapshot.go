package core

import (
	"encoding/json"
	"fmt"
	"time"

	"zac/internal/engine"
	"zac/internal/fidelity"
	"zac/internal/zair"
)

// Snapshot is the persistable subset of a Result: everything a consumer of
// a finished compilation needs (the ZAIR program, the fidelity evaluation,
// and the summary scalars), without the placement plan and staged circuit,
// whose deep pointer graphs into the architecture make them impractical to
// serialize. A Result restored from a Snapshot therefore has Plan == nil
// and Staged == nil; callers that need the plan (e.g. the Fig. 13
// optimality bounds) detect that and rebuild it.
type Snapshot struct {
	Program          *zair.Program      `json:"program"`
	Stats            fidelity.Stats     `json:"stats"`
	Breakdown        fidelity.Breakdown `json:"breakdown"`
	Duration         float64            `json:"duration_us"`
	CompileTime      time.Duration      `json:"compile_ns"`
	NumRydbergStages int                `json:"rydberg_stages"`
	NumJobs          int                `json:"rearrange_jobs"`
	ReusedGates      int                `json:"reused_gates"`
	TotalMoves       int                `json:"moves"`
	Passes           []PassTiming       `json:"passes,omitempty"`
}

// SnapshotOf extracts the persistable subset of r.
func SnapshotOf(r *Result) *Snapshot {
	return &Snapshot{
		Program: r.Program, Stats: r.Stats, Breakdown: r.Breakdown,
		Duration: r.Duration, CompileTime: r.CompileTime,
		NumRydbergStages: r.NumRydbergStages, NumJobs: r.NumJobs,
		ReusedGates: r.ReusedGates, TotalMoves: r.TotalMoves,
		Passes: r.Passes,
	}
}

// Result reconstitutes the snapshot as a Result with nil Plan and Staged.
func (s *Snapshot) Result() *Result {
	return &Result{
		Program: s.Program, Stats: s.Stats, Breakdown: s.Breakdown,
		Duration: s.Duration, CompileTime: s.CompileTime,
		NumRydbergStages: s.NumRydbergStages, NumJobs: s.NumJobs,
		ReusedGates: s.ReusedGates, TotalMoves: s.TotalMoves,
		Passes: s.Passes,
	}
}

// ResultCodec returns the engine codec that persists *Result values through
// their Snapshot form — the codec the experiment harness uses for the disk
// tier of the compilation cache. (zac-serve caches its finished responses
// instead; see internal/serve.)
func ResultCodec() *engine.Codec {
	return &engine.Codec{
		Encode: func(v any) ([]byte, error) {
			r, ok := v.(*Result)
			if !ok {
				return nil, fmt.Errorf("core: ResultCodec cannot encode %T", v)
			}
			return json.Marshal(SnapshotOf(r))
		},
		Decode: func(data []byte) (any, error) {
			var s Snapshot
			if err := json.Unmarshal(data, &s); err != nil {
				return nil, err
			}
			return s.Result(), nil
		},
	}
}
