// Package cover is the compiler's lightweight feature-coverage hook: a
// thread-safe counter set that pipeline passes and planner branches bump
// when an input exercises them, plumbed through context.Context so no
// signature in the hot path changes. It exists for the coverage-guided
// differential fuzzer (internal/difftest, `zac-fuzz -diff`): an input that
// reaches a feature no earlier input reached is worth keeping as a seed.
// Every call is nil-safe — compilations without a collector in their
// context (benchmarks, the service, the experiment harness) pay one nil
// check per recorded branch, nothing more.
package cover

import (
	"context"
	"sort"
	"sync"
)

// Set is a concurrency-safe feature → hit-count table. The zero value is
// not usable; construct with NewSet. A nil *Set is a valid no-op receiver
// for every method, so instrumented code never branches on collection
// being enabled.
type Set struct {
	mu     sync.Mutex
	counts map[string]uint64
}

// NewSet returns an empty collector.
func NewSet() *Set { return &Set{counts: map[string]uint64{}} }

// Hit records one occurrence of a feature. No-op on a nil receiver.
func (s *Set) Hit(feature string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.counts[feature]++
	s.mu.Unlock()
}

// Counts returns a copy of the feature table. Nil receivers return nil.
func (s *Set) Counts() map[string]uint64 {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]uint64, len(s.counts))
	for k, v := range s.counts {
		out[k] = v
	}
	return out
}

// Features returns the sorted feature names seen so far.
func (s *Set) Features() []string {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.counts))
	for k := range s.counts {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Has reports whether the feature has been hit at least once.
func (s *Set) Has(feature string) bool {
	if s == nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.counts[feature] > 0
}

// Merge adds every count of other into s (other may be nil).
func (s *Set) Merge(other map[string]uint64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for k, v := range other {
		s.counts[k] += v
	}
}

// Diff returns the features of s that baseline has never hit, sorted — the
// "did this input reach anything new" primitive of the mutation loop.
func (s *Set) Diff(baseline *Set) []string {
	if s == nil {
		return nil
	}
	var out []string
	for _, f := range s.Features() {
		if !baseline.Has(f) {
			out = append(out, f)
		}
	}
	return out
}

type ctxKey struct{}

// With returns a context carrying the collector; instrumented code reached
// through it records features into s.
func With(ctx context.Context, s *Set) context.Context {
	return context.WithValue(ctx, ctxKey{}, s)
}

// From extracts the collector from a context, or nil when none is attached.
// The nil result is safe to call methods on.
func From(ctx context.Context) *Set {
	s, _ := ctx.Value(ctxKey{}).(*Set)
	return s
}
