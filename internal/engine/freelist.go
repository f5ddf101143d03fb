package engine

import (
	"runtime"
	"sync"
)

// FreeList keeps up to GOMAXPROCS values between uses, so that a value
// which is costly to grow, such as a compile's scratch buffers, is grown
// once and then reused. Unlike a sync.Pool it survives garbage collection:
// a compile allocates enough to start about one collection per compile, and
// a pool emptied by each one would hand back little. The cap bounds what it
// holds to one value per goroutine that can run at once. A zero FreeList is
// empty and ready to use; it is safe for concurrent use.
type FreeList[T any] struct {
	mu    sync.Mutex
	items []T
}

// Get removes and returns the value put most recently, or reports false
// when the list is empty.
func (l *FreeList[T]) Get() (T, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	var v T
	n := len(l.items)
	if n == 0 {
		return v, false
	}
	v, l.items[n-1] = l.items[n-1], v
	l.items = l.items[:n-1]
	return v, true
}

// Put keeps v for a later Get, or drops it when the list already holds
// GOMAXPROCS values.
func (l *FreeList[T]) Put(v T) {
	limit := runtime.GOMAXPROCS(0)
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.items) < limit {
		l.items = append(l.items, v)
	}
}
