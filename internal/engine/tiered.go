package engine

import (
	"context"
	"encoding/json"
	"errors"
	"sync"
	"sync/atomic"

	"zac/internal/telemetry"
)

// Codec serializes cached values for the disk tier. Entries looked up with a
// nil *Codec stay memory-only: they deduplicate and memoize within the
// process but are never persisted (the right choice for values holding deep
// pointer graphs, like placement plans).
type Codec struct {
	// Encode turns a computed value into a persistable payload.
	Encode func(v any) ([]byte, error)
	// Decode reconstructs a value from a persisted payload.
	Decode func(data []byte) (any, error)
}

// JSONCodec returns the Codec that round-trips T through encoding/json —
// sufficient for plain-data results (fidelity breakdowns, reports, compile
// summaries).
func JSONCodec[T any]() *Codec {
	return &Codec{
		Encode: func(v any) ([]byte, error) { return json.Marshal(v) },
		Decode: func(data []byte) (any, error) {
			var v T
			if err := json.Unmarshal(data, &v); err != nil {
				return nil, err
			}
			return v, nil
		},
	}
}

// Tiered is the compilation cache hierarchy: a single-flight layer (callers
// computing the same key concurrently share one computation), an LRU
// in-memory front, and an optional content-addressed disk back tier so
// results survive restarts and are shared across processes. Lookup order is
// memory → in-flight → disk → compute; computed values are written through
// to both tiers. Errors are memoized in memory only (compilation is
// deterministic, so a failure recomputes to the same failure) and never
// persisted.
type Tiered struct {
	mu       sync.Mutex
	inflight map[string]*flight
	mem      *LRU
	disk     atomic.Pointer[DiskCache]

	memHits  atomic.Uint64
	diskHits atomic.Uint64
	misses   atomic.Uint64
}

// flight is one in-progress computation; waiters block on ready. The
// computation runs under its own context, cancelled only when every caller
// interested in the result has cancelled — one client abandoning a shared
// compilation must not fail the others.
type flight struct {
	ready chan struct{}
	val   any
	err   error

	// leaderTrace is the telemetry trace ID of the caller that started the
	// computation ("" when it carried no trace), so joiners can record which
	// request's story their wait belongs to.
	leaderTrace string

	cancel  context.CancelFunc
	mu      sync.Mutex
	waiters int
}

// join registers one more caller interested in the flight's result. It
// refuses (returning false) when the flight is moribund — every previous
// caller cancelled, so its computation is already being torn down and a
// new caller must start its own instead of inheriting the cancellation.
func (f *flight) join() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.waiters == 0 {
		return false
	}
	f.waiters++
	return true
}

// leave deregisters a caller that gave up waiting; the last one to leave
// cancels the computation. waiters only reaches zero through
// cancellation — normal completion never decrements — so waiters == 0 is
// the moribund marker join checks.
func (f *flight) leave() {
	f.mu.Lock()
	f.waiters--
	last := f.waiters == 0
	f.mu.Unlock()
	if last {
		f.cancel()
	}
}

// memEntry is a completed result resident in the LRU front.
type memEntry struct {
	val any
	err error
}

// transientError marks a failure as a condition of the moment rather than a
// property of the key; see Transient.
type transientError struct{ error }

// Unwrap exposes the wrapped error to errors.Is/As chains.
func (t transientError) Unwrap() error { return t.error }

// Transient wraps err so the cache will deliver it to waiters but never
// memoize it — the same contract cancellation errors get. Use it for
// failures that say nothing about the key: admission rejections, resource
// exhaustion, I/O trouble. A nil err stays nil.
func Transient(err error) error {
	if err == nil {
		return nil
	}
	return transientError{err}
}

// NewTiered returns a memory-only tiered cache whose LRU front holds at most
// memEntries values (≤ 0 for unbounded). Attach a disk tier with SetDisk.
func NewTiered(memEntries int) *Tiered {
	return &Tiered{inflight: map[string]*flight{}, mem: NewLRU(memEntries)}
}

// SetDisk attaches (or, with nil, detaches) the persistent tier. Safe to
// call concurrently with lookups; in-flight computations commit to the tier
// visible when they finish.
func (t *Tiered) SetDisk(d *DiskCache) { t.disk.Store(d) }

// Disk returns the attached persistent tier, or nil.
func (t *Tiered) Disk() *DiskCache { return t.disk.Load() }

// Do returns the cached value for key, computing it with compute on the
// first call. Calls that arrive while a computation is in flight block and
// share its result, counting as memory hits; values restored from the disk
// tier count as disk hits.
func (t *Tiered) Do(key string, codec *Codec, compute func() (any, error)) (any, error) {
	return t.DoCtx(context.Background(), key, codec, func(context.Context) (any, error) { return compute() })
}

// Tier names where a tiered lookup was served from; see DoCtxTier.
type Tier string

// The tiers a DoCtxTier lookup can resolve through.
const (
	// TierMem is an LRU memory-front hit.
	TierMem Tier = "mem"
	// TierJoin is a single-flight join: the caller shared another caller's
	// in-progress computation.
	TierJoin Tier = "join"
	// TierDisk is a disk-tier restore.
	TierDisk Tier = "disk"
	// TierCompute is a full miss: the caller ran the computation itself.
	TierCompute Tier = "compute"
)

// DoCtx is Do with caller-aware cancellation. compute receives a context
// that is cancelled only when every caller sharing the computation has
// cancelled: the originator's disconnect does not fail waiters that joined
// the flight, and a waiter's cancellation returns its own ctx error while
// the computation keeps running for the rest. Cancelled results are never
// memoized, so the next caller recomputes.
func (t *Tiered) DoCtx(ctx context.Context, key string, codec *Codec, compute func(ctx context.Context) (any, error)) (any, error) {
	v, _, err := t.DoCtxTier(ctx, key, codec, compute)
	return v, err
}

// DoCtxTier is DoCtx, additionally reporting which Tier served the lookup
// ("" when the caller's context was already done). When ctx carries a
// telemetry trace, the lookup records a "cache.lookup" span with per-tier
// child spans (cache.mem, cache.join, cache.disk) and the computation runs
// under the lookup span, so pipeline passes nest inside the request's trace;
// joiners record the leader's trace ID.
func (t *Tiered) DoCtxTier(ctx context.Context, key string, codec *Codec, compute func(ctx context.Context) (any, error)) (any, Tier, error) {
	if err := ctx.Err(); err != nil {
		return nil, "", err
	}
	ctx, lookup := telemetry.Start(ctx, "cache.lookup")
	t.mu.Lock()
	if v, ok := t.mem.Get(key); ok {
		t.mu.Unlock()
		t.memHits.Add(1)
		telemetry.Event(ctx, "cache.mem", "hit", "true")
		lookup.Set("tier", string(TierMem))
		lookup.End()
		e := v.(memEntry)
		return e.val, TierMem, e.err
	}
	if f, ok := t.inflight[key]; ok && f.join() {
		t.mu.Unlock()
		t.memHits.Add(1)
		_, joinSpan := telemetry.Start(ctx, "cache.join")
		joinSpan.Set("leader_trace", f.leaderTrace)
		lookup.Set("tier", string(TierJoin))
		select {
		case <-f.ready:
			joinSpan.End()
			lookup.End()
			return f.val, TierJoin, f.err
		case <-ctx.Done():
			f.leave()
			joinSpan.Set("abandoned", "true")
			joinSpan.End()
			lookup.End()
			return nil, TierJoin, ctx.Err()
		}
	}
	// No shareable computation in flight — none at all, or a moribund one
	// whose callers all cancelled. Start our own, replacing any dead map
	// entry (finish only deletes the entry it installed). The computation
	// inherits the originator's context values (tracing, fault-injection
	// plans) but not its cancellation — that is relayed through the waiter
	// refcount below, so one caller's disconnect cannot fail the others.
	computeCtx, cancel := context.WithCancel(context.WithoutCancel(ctx))
	f := &flight{ready: make(chan struct{}), cancel: cancel, waiters: 1,
		leaderTrace: telemetry.From(ctx).TraceID()}
	t.inflight[key] = f
	t.mu.Unlock()
	defer cancel()
	telemetry.Event(ctx, "cache.mem", "hit", "false")

	disk := t.Disk()
	if disk != nil && codec != nil {
		_, diskSpan := telemetry.Start(ctx, "cache.disk")
		if diskSpan != nil { // Stats takes locks; skip it when not tracing
			diskSpan.Set("breaker", disk.Stats().BreakerState)
		}
		if data, ok := disk.Get(key); ok {
			if v, err := codec.Decode(data); err == nil {
				t.diskHits.Add(1)
				diskSpan.Set("hit", "true")
				diskSpan.End()
				lookup.Set("tier", string(TierDisk))
				lookup.End()
				t.finish(key, f, v, nil)
				return v, TierDisk, nil
			}
			// Decodable-envelope but undecodable payload: a codec or schema
			// change. Drop the entry and fall through to a recompute.
			disk.Remove(key)
		}
		diskSpan.Set("hit", "false")
		diskSpan.End()
	}

	// Relay the originator's cancellation through the waiter refcount: if
	// it fires while others still want the result, the computation — which
	// runs on the originator's goroutine — continues for them.
	watchDone := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			f.leave()
		case <-watchDone:
		}
	}()

	t.misses.Add(1)
	v, err := compute(computeCtx)
	close(watchDone)
	if err == nil && disk != nil && codec != nil {
		if data, encErr := codec.Encode(v); encErr == nil {
			disk.Put(key, data) // best effort; a failed write only costs a future recompute
		}
	}
	lookup.Set("tier", string(TierCompute))
	lookup.End()
	t.finish(key, f, v, err)
	return v, TierCompute, err
}

// finish publishes a completed computation to the LRU front and releases
// the single-flight waiters. Cancellation and Transient-marked errors are
// delivered to waiters but not memoized — they say nothing about the key,
// and caching one would poison it for every future caller.
func (t *Tiered) finish(key string, f *flight, v any, err error) {
	f.val, f.err = v, err
	var te transientError
	t.mu.Lock()
	if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) && !errors.As(err, &te) {
		t.mem.Put(key, memEntry{val: v, err: err})
	}
	// A moribund flight may already have been replaced by a fresh one;
	// only remove the entry this computation installed.
	if t.inflight[key] == f {
		delete(t.inflight, key)
	}
	t.mu.Unlock()
	close(f.ready)
}

// Reset drops every in-memory entry and zeroes the lookup counters. The disk
// tier is left intact — after a Reset, previously computed keys come back as
// disk hits, which is exactly the restart scenario Reset simulates in tests.
func (t *Tiered) Reset() {
	t.mu.Lock()
	t.mem.Clear()
	t.mu.Unlock()
	t.memHits.Store(0)
	t.diskHits.Store(0)
	t.misses.Store(0)
}

// TieredStats reports the hierarchy's effectiveness counters.
type TieredStats struct {
	MemHits    uint64
	DiskHits   uint64
	Misses     uint64
	MemEntries int
	Disk       DiskStats // zero when no disk tier is attached
}

// Hits returns memory plus disk hits.
func (s TieredStats) Hits() uint64 { return s.MemHits + s.DiskHits }

// Lookups returns the total number of Do calls observed.
func (s TieredStats) Lookups() uint64 { return s.MemHits + s.DiskHits + s.Misses }

// HitRate returns hits over lookups in [0, 1], or 0 before any lookup.
func (s TieredStats) HitRate() float64 {
	if s.Lookups() == 0 {
		return 0
	}
	return float64(s.Hits()) / float64(s.Lookups())
}

// Stats returns the current counters.
func (t *Tiered) Stats() TieredStats {
	t.mu.Lock()
	entries := t.mem.Len()
	t.mu.Unlock()
	st := TieredStats{
		MemHits: t.memHits.Load(), DiskHits: t.diskHits.Load(),
		Misses: t.misses.Load(), MemEntries: entries,
	}
	if d := t.Disk(); d != nil {
		st.Disk = d.Stats()
	}
	return st
}

// GetTiered is the typed wrapper over Do.
func GetTiered[T any](t *Tiered, key string, codec *Codec, compute func() (T, error)) (T, error) {
	v, err := t.Do(key, codec, func() (any, error) { return compute() })
	if err != nil {
		var zero T
		return zero, err
	}
	return v.(T), nil
}

// GetTieredCtxTier is the typed wrapper over DoCtxTier.
func GetTieredCtxTier[T any](t *Tiered, ctx context.Context, key string, codec *Codec, compute func(ctx context.Context) (T, error)) (T, Tier, error) {
	v, tier, err := t.DoCtxTier(ctx, key, codec, func(ctx context.Context) (any, error) { return compute(ctx) })
	if err != nil {
		var zero T
		return zero, tier, err
	}
	return v.(T), tier, nil
}
