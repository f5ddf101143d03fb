// Package faultinject is the deterministic fault-injection layer behind the
// chaos test suite: a seeded Plan maps named injection points ("fs.readfile",
// "fs.rename", "pass.place", …) to faults — error returns, injected latency,
// silently truncated writes, torn renames, bit-flip corruption — fired either
// probabilistically from a per-point splitmix64 stream or on exact hit
// ordinals. The same seed always produces the same per-point fault schedule,
// so a chaos run that finds a bug is replayable from its seed alone.
//
// Faults reach production code through two narrow seams, neither of which
// changes a hot-path signature: WrapFS decorates the engine.FS seam every
// DiskCache I/O operation goes through, and With/From carry a Plan in a
// context.Context so core.Pipeline can consult Boundary at each pass
// boundary (mirroring internal/cover's context-carried counters). Code
// without a plan in scope pays one nil check, nothing more.
package faultinject

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrInjected is the sentinel wrapped by every injected error fault, so
// tests can errors.Is-classify failures they caused themselves.
var ErrInjected = errors.New("faultinject: injected fault")

// Kind enumerates the fault behaviors a Rule can fire.
type Kind int

// The fault behaviors. Not every kind is meaningful at every point: partial
// writes only apply to "fs.write", torn renames to "fs.rename", bit flips to
// "fs.readfile"; a kind at a point it cannot corrupt degrades to an error
// fault, so a misconfigured rule is loud rather than silent.
const (
	// KindError makes the operation return Rule.Err (default ErrInjected).
	KindError Kind = iota + 1
	// KindLatency delays the operation by Rule.Latency, then proceeds.
	KindLatency
	// KindPartialWrite truncates a write to Rule.Fraction of its bytes while
	// reporting full success — the entry commits torn, as if the kernel lost
	// dirty pages on power failure.
	KindPartialWrite
	// KindTornRename commits only Rule.Fraction of the staged file's bytes
	// to the destination and reports success — a torn commit the reader's
	// checksum must catch.
	KindTornRename
	// KindBitFlip flips one deterministic-random bit of the bytes a read
	// returns, leaving the file on disk intact.
	KindBitFlip
)

// String names the kind for traces and test failures.
func (k Kind) String() string {
	switch k {
	case KindError:
		return "error"
	case KindLatency:
		return "latency"
	case KindPartialWrite:
		return "partial-write"
	case KindTornRename:
		return "torn-rename"
	case KindBitFlip:
		return "bit-flip"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Rule arms one fault at one injection point. Rules fire either on exact
// hit ordinals (Hits, 1-based) or with per-hit probability Prob drawn from
// the point's seeded stream; the first matching rule of a point wins.
type Rule struct {
	// Point names the injection point this rule arms ("fs.readfile",
	// "fs.rename", "pass.place", …).
	Point string
	// Prob is the per-hit firing probability in [0, 1]; ignored when Hits
	// is non-empty.
	Prob float64
	// Hits lists exact 1-based hit ordinals that fire, for fully scripted
	// schedules ("fail the 3rd and 5th read").
	Hits []uint64
	// Kind selects the fault behavior.
	Kind Kind
	// Err is the error KindError returns; nil selects ErrInjected wrapped
	// with the point name.
	Err error
	// Latency is KindLatency's delay.
	Latency time.Duration
	// Fraction is the kept fraction for partial writes and torn renames;
	// 0 selects 0.5.
	Fraction float64
}

// PointStats reports one injection point's traffic: how often it was hit
// and how often a fault actually fired there.
type PointStats struct {
	// Hits counts Decide calls for the point (armed or not).
	Hits uint64
	// Fired counts the hits on which a fault fired.
	Fired uint64
}

// pointState is one injection point's rng stream and counters.
type pointState struct {
	rng   uint64 // splitmix64 state, derived from (plan seed, point name)
	stats PointStats
}

// Plan is a seeded, concurrency-safe fault schedule. The zero value is not
// usable; construct with NewPlan. A nil *Plan is a valid no-op receiver for
// Decide and Boundary, so instrumented code never branches on injection
// being armed.
type Plan struct {
	mu      sync.Mutex
	seed    int64
	enabled bool
	rules   map[string][]Rule
	points  map[string]*pointState
	sleep   func(time.Duration)
}

// NewPlan returns an armed Plan drawing per-point fault streams from seed.
//
//zac:keep fault-injection seam: the chaos and fault tests build their schedules with it
func NewPlan(seed int64, rules ...Rule) *Plan {
	p := &Plan{
		seed:    seed,
		enabled: true,
		rules:   map[string][]Rule{},
		points:  map[string]*pointState{},
		sleep:   time.Sleep,
	}
	p.Add(rules...)
	return p
}

// Add arms additional rules; per point, rules are consulted in the order
// they were added.
func (p *Plan) Add(rules ...Rule) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, r := range rules {
		p.rules[r.Point] = append(p.rules[r.Point], r)
	}
}

// SetEnabled arms (true) or disarms (false) the whole plan. Disarmed plans
// count hits but never fire — the "faults stop, system recovers" phase of a
// chaos schedule.
//
//zac:keep fault-injection seam: chaos tests disarm a plan to watch the system recover
func (p *Plan) SetEnabled(on bool) {
	p.mu.Lock()
	p.enabled = on
	p.mu.Unlock()
}

// SetSleep overrides the latency-fault sleeper (tests; nil restores
// time.Sleep).
//
//zac:keep fault-injection seam: it lets a test run latency faults without sleeping
func (p *Plan) SetSleep(fn func(time.Duration)) {
	p.mu.Lock()
	if fn == nil {
		fn = time.Sleep
	}
	p.sleep = fn
	p.mu.Unlock()
}

// Stats returns the point's hit/fired counters.
//
//zac:keep fault-injection seam: fault tests assert per-point counters
func (p *Plan) Stats(point string) PointStats {
	if p == nil {
		return PointStats{}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if st, ok := p.points[point]; ok {
		return st.stats
	}
	return PointStats{}
}

// Fired sums the fired counters over every point with the given prefix —
// convenient for "did any fs fault fire" assertions.
//
//zac:keep fault-injection seam: fault tests assert that a fault fired
func (p *Plan) Fired(prefix string) uint64 {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	var n uint64
	for name, st := range p.points {
		if len(name) >= len(prefix) && name[:len(prefix)] == prefix {
			n += st.stats.Fired
		}
	}
	return n
}

// Decide registers one hit of the injection point and returns the rule that
// fires on it, or nil. Each point consumes its own splitmix64 stream derived
// from (seed, point), so schedules are reproducible per point regardless of
// how concurrent goroutines interleave hits across different points. Safe
// on a nil receiver (never fires).
func (p *Plan) Decide(point string) *Rule {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	st := p.points[point]
	if st == nil {
		st = &pointState{rng: splitmixSeed(p.seed, point)}
		p.points[point] = st
	}
	st.stats.Hits++
	if !p.enabled {
		return nil
	}
	for i := range p.rules[point] {
		r := &p.rules[point][i]
		if len(r.Hits) > 0 {
			for _, h := range r.Hits {
				if h == st.stats.Hits {
					st.stats.Fired++
					return r
				}
			}
			continue
		}
		// One draw per probabilistic rule per hit keeps the stream aligned
		// whether or not earlier rules fired.
		if float64(splitmix(&st.rng)>>11)/(1<<53) < r.Prob {
			st.stats.Fired++
			return r
		}
	}
	return nil
}

// Rand returns the next value of the point's auxiliary random stream, used
// by fault implementations that need a deterministic choice (which bit to
// flip, where to truncate).
func (p *Plan) Rand(point string) uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := p.points[point]
	if st == nil {
		st = &pointState{rng: splitmixSeed(p.seed, point)}
		p.points[point] = st
	}
	return splitmix(&st.rng)
}

// Boundary applies the point's fault as a pass-boundary hook: latency
// faults sleep (cancellable through ctx), error faults return their error,
// corruption kinds degrade to errors (there are no bytes to corrupt at a
// pass boundary). Nil-safe; core.Pipeline calls this between passes for
// plans carried in the compile context.
func (p *Plan) Boundary(ctx context.Context, point string) error {
	r := p.Decide(point)
	if r == nil {
		return nil
	}
	if r.Kind == KindLatency {
		t := time.NewTimer(r.Latency)
		defer t.Stop()
		select {
		case <-t.C:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return r.fail(point)
}

// fail renders the rule as its injected error.
func (r *Rule) fail(point string) error {
	if r.Err != nil {
		return r.Err
	}
	return fmt.Errorf("%s: %w", point, ErrInjected)
}

// sleeper returns the plan's latency sleeper.
func (p *Plan) sleeper() func(time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.sleep
}

// splitmixSeed derives a point's initial rng state from the plan seed and
// the point name (FNV-1a folded into the seed), so distinct points consume
// independent deterministic streams.
func splitmixSeed(seed int64, point string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(point); i++ {
		h ^= uint64(point[i])
		h *= 1099511628211
	}
	return uint64(seed) ^ h
}

// splitmix advances a splitmix64 state and returns the next value.
func splitmix(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

type ctxKey struct{}

// With returns a context carrying the plan; instrumented code reached
// through it (the pass pipeline) consults the plan at its injection points.
//
//zac:keep fault-injection seam: chaos tests arm the pass pipeline through the request context
func With(ctx context.Context, p *Plan) context.Context {
	return context.WithValue(ctx, ctxKey{}, p)
}

// From extracts the context's plan, or nil — every Plan method is nil-safe,
// so callers chain From(ctx).Boundary(...) without branching.
func From(ctx context.Context) *Plan {
	p, _ := ctx.Value(ctxKey{}).(*Plan)
	return p
}
