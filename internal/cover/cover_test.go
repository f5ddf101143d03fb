package cover

import (
	"context"
	"sync"
	"testing"
)

func TestNilSetIsSafe(t *testing.T) {
	var s *Set
	s.Hit("x")
	s.Merge(map[string]uint64{"y": 1})
	if s.Counts() != nil || s.Features() != nil || s.Has("x") {
		t.Error("nil Set must observe nothing")
	}
	if d := s.Diff(NewSet()); d != nil {
		t.Errorf("nil Diff = %v", d)
	}
}

func TestHitCountsAndDiff(t *testing.T) {
	base := NewSet()
	base.Hit("a")
	base.Hit("a")
	base.Hit("b")
	if got := base.Counts()["a"]; got != 2 {
		t.Errorf("a hit %d times, want 2", got)
	}
	next := NewSet()
	next.Hit("b")
	next.Hit("c")
	next.Hit("d")
	if d := next.Diff(base); len(d) != 2 || d[0] != "c" || d[1] != "d" {
		t.Errorf("Diff = %v, want [c d]", d)
	}
	base.Merge(next.Counts())
	if !base.Has("c") || len(base.Counts()) != 4 {
		t.Errorf("merge lost features: %v", base.Features())
	}
}

func TestContextPlumbing(t *testing.T) {
	if From(context.Background()) != nil {
		t.Error("empty context carried a collector")
	}
	s := NewSet()
	ctx := With(context.Background(), s)
	From(ctx).Hit("via-ctx")
	if !s.Has("via-ctx") {
		t.Error("hit through context not recorded")
	}
}

func TestConcurrentHits(t *testing.T) {
	s := NewSet()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				s.Hit("hot")
			}
		}()
	}
	wg.Wait()
	if got := s.Counts()["hot"]; got != 8000 {
		t.Errorf("hot hit %d times, want 8000", got)
	}
}
