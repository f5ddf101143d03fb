package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"time"

	"zac/internal/arch"
	"zac/internal/compiler"
	"zac/internal/core"
	"zac/internal/engine"
	"zac/internal/fidelity"
)

// entryKeyPrefix versions zac-serve's cache keys. Entries under it are
// entryCodec payloads; the older "serve|" keys held a JSON object of the
// program plus the result scalars, which the disk tier may still carry and
// which is thus never looked up, let alone decoded as an entry.
const entryKeyPrefix = "serve.v2|"

// entryKey is the cache identity of one compilation: compiler.Key over the
// request's compiler, options, circuit and architecture, with the staging
// split to the compiler's StageSplitCap. Options that only change compile
// speed (Workers), or that the compiler ignores, never change it.
func entryKey(c compiler.Compiler, opts compiler.Options, circKey string, a *arch.Architecture) string {
	return entryKeyPrefix + compiler.Key(c, opts, circKey, compiler.StageSplitCap(c), a)
}

// entry is one finished compilation as zac-serve caches it: the scalars of
// its response and its ZAIR program, encoded once when the compilation ran.
// An entry is immutable once cached; every response that serves it shares
// its zair bytes, clipped to their length so no append can write into them.
type entry struct {
	entryHeader
	// zair is the program as `zac -out` writes it:
	// json.MarshalIndent(program, "", " ").
	zair []byte
}

// entryHeader holds the response scalars of a compilation. On disk it is the
// JSON line in front of the ZAIR bytes, whose length it records.
type entryHeader struct {
	ZAIRBytes     int                `json:"zair_bytes"`
	Name          string             `json:"name"`
	NumQubits     int                `json:"num_qubits"`
	Fidelity      fidelity.Breakdown `json:"fidelity"`
	DurationUS    float64            `json:"duration_us"`
	CompileTime   time.Duration      `json:"compile_ns"`
	RydbergStages int                `json:"rydberg_stages"`
	RearrangeJobs int                `json:"rearrange_jobs"`
	ReusedGates   int                `json:"reused_gates"`
	Moves         int                `json:"moves"`
}

// newEntry encodes a fresh compilation's program — the exact encoding the
// zac CLI writes with -out, so service and CLI output are byte-identical.
// Baseline compilers are evaluation models: their program is header-only.
func newEntry(r *core.Result) (*entry, error) {
	raw, err := json.MarshalIndent(r.Program, "", " ")
	if err != nil {
		return nil, fmt.Errorf("encoding ZAIR: %w", err)
	}
	return &entry{entryHeader: entryHeader{
		ZAIRBytes:     len(raw),
		Name:          r.Program.Name,
		NumQubits:     r.Program.NumQubits,
		Fidelity:      r.Breakdown,
		DurationUS:    r.Duration,
		CompileTime:   r.CompileTime,
		RydbergStages: r.NumRydbergStages,
		RearrangeJobs: r.NumJobs,
		ReusedGates:   r.ReusedGates,
		Moves:         r.TotalMoves,
	}, zair: slices.Clip(raw)}, nil
}

// response renders the entry for one request. The ZAIR is the entry's own
// slice, not a copy.
func (e *entry) response(compiler, setting string, cached, includeZAIR bool) *CompileResponse {
	out := &CompileResponse{
		Name:          e.Name,
		NumQubits:     e.NumQubits,
		Compiler:      compiler,
		Setting:       setting,
		Fidelity:      e.Fidelity,
		DurationUS:    e.DurationUS,
		CompileMS:     float64(e.CompileTime) / float64(time.Millisecond),
		RydbergStages: e.RydbergStages,
		RearrangeJobs: e.RearrangeJobs,
		ReusedGates:   e.ReusedGates,
		Moves:         e.Moves,
		Cached:        cached,
	}
	if includeZAIR {
		out.ZAIR = e.zair
	}
	return out
}

// entryCodec persists entries as the compact JSON header, a newline, and the
// raw ZAIR bytes. json.Marshal escapes every newline inside a string, so the
// first newline always ends the header. The disk tier's envelope already
// checksums the payload, so a disk hit decodes the small header only; a
// payload without the separator, or whose header does not decode or does not
// match the ZAIR length, fails to decode, and the tier drops and recomputes
// it.
var entryCodec = &engine.Codec{
	Encode: func(v any) ([]byte, error) {
		e, ok := v.(*entry)
		if !ok {
			return nil, fmt.Errorf("serve: entryCodec cannot encode %T", v)
		}
		head, err := json.Marshal(e.entryHeader)
		if err != nil {
			return nil, err
		}
		out := make([]byte, 0, len(head)+1+len(e.zair))
		return append(append(append(out, head...), '\n'), e.zair...), nil
	},
	Decode: func(data []byte) (any, error) {
		head, zair, ok := bytes.Cut(data, []byte{'\n'})
		if !ok {
			return nil, errors.New("serve: cache entry has no header separator")
		}
		e := &entry{zair: slices.Clip(zair)}
		if err := json.Unmarshal(head, &e.entryHeader); err != nil {
			return nil, fmt.Errorf("serve: cache entry header: %w", err)
		}
		if len(zair) == 0 || e.ZAIRBytes != len(zair) {
			return nil, fmt.Errorf("serve: cache entry header records %d ZAIR bytes, payload holds %d", e.ZAIRBytes, len(zair))
		}
		return e, nil
	},
}
