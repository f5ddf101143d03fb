package graphalgo

import "math/bits"

// PartitionIntoIndependentSets repeatedly extracts maximal independent sets
// until every vertex is covered, returning the groups in extraction order,
// each sorted ascending. This is how rearrangement jobs are formed from a
// movement conflict graph (paper §VI, following Enola): each group is one
// job of compatible moves.
//
// conflict is the graph's adjacency as a bit matrix: n rows of
// (n+63)/64 words, with bit j%64 of word j/64 in row i set when i and j are
// adjacent. It must be symmetric (an undirected graph) with a clear
// diagonal. It is only read.
//
// Each round is the standard greedy heuristic, low-degree vertices first,
// over the graph induced by the vertices not yet grouped: they are visited
// in ascending (induced degree, vertex) order, and one joins the group
// unless a neighbour already has. A round costs O(live vertices + max
// degree) plus the rows of the vertices it groups: induced degrees are kept
// live (decremented as neighbours leave), a stable counting sort orders the
// round, and a round stamp marks blocked vertices.
func PartitionIntoIndependentSets(n int, conflict []uint64) [][]int {
	return new(Partitioner).Partition(n, conflict)
}

// Partitioner runs PartitionIntoIndependentSets on working arrays it keeps
// between calls, so that after warm-up a partition allocates nothing. A
// zero Partitioner is ready to use; it must not be used concurrently.
type Partitioner struct {
	deg, live, order, count, blocked, buf []int
	grouped                               []bool
	groups                                [][]int
}

// Partition is PartitionIntoIndependentSets. The groups it returns are
// owned by p and valid until the next Partition.
func (p *Partitioner) Partition(n int, conflict []uint64) [][]int {
	words := (n + 63) / 64
	deg := resize(p.deg, n) // degree induced by the live vertices
	maxDeg := 0
	for v := range deg {
		deg[v] = 0
		for _, word := range conflict[v*words : (v+1)*words] {
			deg[v] += bits.OnesCount64(word)
		}
		maxDeg = max(maxDeg, deg[v])
	}
	live := resize(p.live, n) // ungrouped vertices, ascending
	for v := range live {
		live[v] = v
	}
	order := resize(p.order, n)
	count := resize(p.count, maxDeg+1)
	blocked := resize(p.blocked, n) // round that blocked v; 0 = none
	clear(blocked)
	grouped := resize(p.grouped, n)
	clear(grouped)
	buf := resize(p.buf, n) // every group is carved out of buf
	p.deg, p.live, p.order, p.count, p.blocked, p.grouped, p.buf = deg, live, order, count, blocked, grouped, buf
	groups := p.groups[:0]
	for round := 1; len(live) > 0; round++ {
		top := 0
		for _, v := range live {
			top = max(top, deg[v])
		}
		cnt := count[:top+1]
		clear(cnt)
		for _, v := range live {
			cnt[deg[v]]++
		}
		sum := 0
		for d, c := range cnt {
			cnt[d] = sum
			sum += c
		}
		for _, v := range live {
			order[cnt[deg[v]]] = v
			cnt[deg[v]]++
		}
		for _, v := range order[:len(live)] {
			if blocked[v] == round {
				continue
			}
			grouped[v] = true
			for w, word := range conflict[v*words : (v+1)*words] {
				for ; word != 0; word &= word - 1 {
					u := w*64 + bits.TrailingZeros64(word)
					blocked[u] = round
					deg[u]--
				}
			}
		}
		group := buf[:0]
		rest := live[:0]
		for _, v := range live {
			if grouped[v] {
				group = append(group, v)
			} else {
				rest = append(rest, v)
			}
		}
		groups = append(groups, group[:len(group):len(group)])
		buf = buf[len(group):]
		live = rest
	}
	p.groups = groups
	return groups
}

// resize returns s with length n, reusing its array when it is large
// enough. The elements are not cleared.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
