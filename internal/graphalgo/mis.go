package graphalgo

// PartitionIntoIndependentSets repeatedly extracts maximal independent sets
// until every vertex is covered, returning the groups in extraction order,
// each sorted ascending. This is how rearrangement jobs are formed from a
// movement conflict graph (paper §VI, following Enola): each group is one
// job of compatible moves. adj must be symmetric (an undirected graph).
//
// Each round is the standard greedy heuristic, low-degree vertices first,
// over the graph induced by the vertices not yet grouped: they are visited
// in ascending (induced degree, vertex) order, and one joins the group
// unless a neighbour already has. A round costs O(live vertices + max
// degree) plus the adjacency of the vertices it groups: induced degrees
// are kept live (decremented as neighbours leave), a stable counting sort
// orders the round, and a round stamp marks blocked vertices.
func PartitionIntoIndependentSets(n int, adj [][]int) [][]int {
	deg := make([]int, n) // degree induced by the live vertices
	maxDeg := 0
	for v := range deg {
		deg[v] = len(adj[v])
		maxDeg = max(maxDeg, deg[v])
	}
	live := make([]int, n) // ungrouped vertices, ascending
	for v := range live {
		live[v] = v
	}
	order := make([]int, n)
	count := make([]int, maxDeg+1)
	blocked := make([]int, n) // round that blocked v; 0 = none
	grouped := make([]bool, n)
	buf := make([]int, n) // every group is carved out of buf
	var groups [][]int
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
			for _, w := range adj[v] {
				blocked[w] = round
				deg[w]--
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
	return groups
}

// IsIndependent reports whether set is an independent set of adj.
func IsIndependent(adj [][]int, set []int) bool {
	in := make(map[int]bool, len(set))
	for _, v := range set {
		in[v] = true
	}
	for _, v := range set {
		for _, w := range adj[v] {
			if in[w] {
				return false
			}
		}
	}
	return true
}

// IsMaximalIndependent reports whether set is independent and no vertex can
// be added without breaking independence.
func IsMaximalIndependent(n int, adj [][]int, set []int) bool {
	if !IsIndependent(adj, set) {
		return false
	}
	in := make(map[int]bool, len(set))
	for _, v := range set {
		in[v] = true
	}
	for v := 0; v < n; v++ {
		if in[v] {
			continue
		}
		conflict := false
		for _, w := range adj[v] {
			if in[w] {
				conflict = true
				break
			}
		}
		if !conflict {
			return false
		}
	}
	return true
}
