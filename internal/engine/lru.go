package engine

import "container/list"

// LRU is a mutex-free bounded map with least-recently-used eviction; callers
// synchronize access themselves (Tiered holds its own lock around every LRU
// call). A capacity ≤ 0 disables eviction, turning the LRU into a plain map
// with recency bookkeeping.
type LRU struct {
	capacity int
	ll       *list.List
	items    map[string]*list.Element
}

// lruItem is one resident entry: the key is duplicated so eviction can
// delete the map slot from the list element alone.
type lruItem struct {
	key string
	val any
}

// NewLRU returns an empty LRU holding at most capacity entries (≤ 0 for
// unbounded).
func NewLRU(capacity int) *LRU {
	return &LRU{capacity: capacity, ll: list.New(), items: map[string]*list.Element{}}
}

// Get returns the value for key and marks it most recently used.
func (l *LRU) Get(key string) (any, bool) {
	e, ok := l.items[key]
	if !ok {
		return nil, false
	}
	l.ll.MoveToFront(e)
	return e.Value.(*lruItem).val, true
}

// Put inserts or replaces the value for key, evicting the least recently
// used entry when the cache is over capacity.
func (l *LRU) Put(key string, val any) {
	if e, ok := l.items[key]; ok {
		e.Value.(*lruItem).val = val
		l.ll.MoveToFront(e)
		return
	}
	l.items[key] = l.ll.PushFront(&lruItem{key: key, val: val})
	if l.capacity > 0 && l.ll.Len() > l.capacity {
		oldest := l.ll.Back()
		l.ll.Remove(oldest)
		delete(l.items, oldest.Value.(*lruItem).key)
	}
}

// Len returns the number of resident entries.
func (l *LRU) Len() int { return l.ll.Len() }

// Clear drops every entry.
func (l *LRU) Clear() {
	l.ll.Init()
	l.items = map[string]*list.Element{}
}
