// Package matching implements the two bipartite-matching algorithms the paper
// relies on (and which its Python artifact delegated to SciPy):
//
//   - Hopcroft–Karp maximum-cardinality bipartite matching [Hopcroft & Karp,
//     SIAM J. Comput. 1973], used by ZAC's qubit-reuse identification
//     (paper §V-B1), with complexity O(|E|·√|V|).
//   - Jonker–Volgenant minimum-weight full matching (shortest augmenting path
//     with dual potentials) [Jonker & Volgenant 1988], used by gate placement
//     (§V-B2) and non-reuse qubit placement (§V-B3), with complexity O(n³).
package matching

// HopcroftKarp is a reusable Hopcroft–Karp matcher. It owns the matching
// and layering arrays and grows them on demand, so after warm-up a Match
// allocates nothing. A zero HopcroftKarp is ready to use; it must not be
// used concurrently.
type HopcroftKarp struct {
	matchL, matchR []int
	dist, queue    []int
}

const hkInf = int(^uint(0) >> 1)

// Match computes a maximum-cardinality matching in a bipartite graph.
// adj[u] lists the right-side vertices adjacent to left vertex u; nRight is
// the number of right-side vertices. It returns matchL (matchL[u] = matched
// right vertex or -1), owned by h and valid until the next Match, and the
// matching size.
func (h *HopcroftKarp) Match(adj [][]int, nRight int) (matchL []int, size int) {
	nLeft := len(adj)
	h.matchL = fillInts(h.matchL, nLeft, -1)
	h.matchR = fillInts(h.matchR, nRight, -1)
	h.dist = fillInts(h.dist, nLeft, 0)
	for h.bfs(adj) {
		for u := 0; u < nLeft; u++ {
			if h.matchL[u] == -1 && h.dfs(adj, u) {
				size++
			}
		}
	}
	return h.matchL, size
}

// bfs layers the left vertices by alternating distance from the free ones
// and reports whether some augmenting path exists.
func (h *HopcroftKarp) bfs(adj [][]int) bool {
	queue := h.queue[:0]
	for u := range adj {
		if h.matchL[u] == -1 {
			h.dist[u] = 0
			queue = append(queue, u)
		} else {
			h.dist[u] = hkInf
		}
	}
	found := false
	for qi := 0; qi < len(queue); qi++ {
		u := queue[qi]
		for _, v := range adj[u] {
			w := h.matchR[v]
			if w == -1 {
				found = true
			} else if h.dist[w] == hkInf {
				h.dist[w] = h.dist[u] + 1
				queue = append(queue, w)
			}
		}
	}
	h.queue = queue
	return found
}

// dfs augments along a shortest path from left vertex u, if one exists.
func (h *HopcroftKarp) dfs(adj [][]int, u int) bool {
	for _, v := range adj[u] {
		w := h.matchR[v]
		if w == -1 || (h.dist[w] == h.dist[u]+1 && h.dfs(adj, w)) {
			h.matchL[u] = v
			h.matchR[v] = u
			return true
		}
	}
	h.dist[u] = hkInf
	return false
}

// fillInts returns s resized to n elements, each v, reusing s's array when
// it is large enough.
func fillInts(s []int, n, v int) []int {
	if cap(s) < n {
		s = make([]int, n)
	} else {
		s = s[:n]
	}
	for i := range s {
		s[i] = v
	}
	return s
}
