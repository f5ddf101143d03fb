package graphalgo

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

func randomGraph(r *rand.Rand, n int, p float64) []Edge {
	var edges []Edge
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if r.Float64() < p {
				edges = append(edges, Edge{u, v})
			}
		}
	}
	return edges
}

func maxDegree(n int, edges []Edge) int {
	deg := make([]int, n)
	for _, e := range edges {
		deg[e.U]++
		deg[e.V]++
	}
	m := 0
	for _, d := range deg {
		if d > m {
			m = d
		}
	}
	return m
}

func TestMisraGriesValidAndTight(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for iter := 0; iter < 200; iter++ {
		n := 2 + r.Intn(14)
		edges := randomGraph(r, n, 0.4)
		colors := MisraGries(n, edges)
		if !validEdgeColoring(n, edges, colors) {
			t.Fatalf("iter %d: invalid coloring for n=%d edges=%v colors=%v", iter, n, edges, colors)
		}
		if nc, bound := NumColors(colors), maxDegree(n, edges)+1; nc > bound {
			t.Fatalf("iter %d: used %d colors, Vizing bound %d", iter, nc, bound)
		}
	}
}

func TestMisraGriesStructured(t *testing.T) {
	// Path graph: Δ=2, chromatic index 2.
	path := []Edge{{0, 1}, {1, 2}, {2, 3}, {3, 4}}
	colors := MisraGries(5, path)
	if !validEdgeColoring(5, path, colors) {
		t.Fatal("invalid path coloring")
	}
	if NumColors(colors) > 3 {
		t.Fatalf("path used %d colors", NumColors(colors))
	}
	// Star K1,5: Δ=5, needs exactly 5.
	star := []Edge{{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5}}
	colors = MisraGries(6, star)
	if !validEdgeColoring(6, star, colors) || NumColors(colors) != 5 {
		t.Fatalf("star coloring wrong: %v", colors)
	}
	// Odd cycle C5: Δ=2 but chromatic index 3.
	c5 := []Edge{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}}
	colors = MisraGries(5, c5)
	if !validEdgeColoring(5, c5, colors) || NumColors(colors) > 3 {
		t.Fatalf("C5 coloring wrong: %v", colors)
	}
}

func TestMisraGriesEmpty(t *testing.T) {
	if got := MisraGries(5, nil); got != nil {
		t.Fatalf("expected nil, got %v", got)
	}
}

func TestGreedyEdgeColoring(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for iter := 0; iter < 100; iter++ {
		n := 2 + r.Intn(12)
		edges := randomGraph(r, n, 0.5)
		colors := greedyEdgeColoring(n, edges)
		if !validEdgeColoring(n, edges, colors) {
			t.Fatalf("iter %d: invalid greedy coloring", iter)
		}
		if nc, bound := NumColors(colors), 2*maxDegree(n, edges)-1; len(edges) > 0 && nc > bound {
			t.Fatalf("iter %d: greedy used %d colors, bound %d", iter, nc, bound)
		}
	}
}

func TestValidEdgeColoringRejects(t *testing.T) {
	edges := []Edge{{0, 1}, {1, 2}}
	if validEdgeColoring(3, edges, []int{0, 0}) {
		t.Error("shared vertex same color must be invalid")
	}
	if validEdgeColoring(3, edges, []int{0}) {
		t.Error("wrong length must be invalid")
	}
	if validEdgeColoring(3, edges, []int{0, -1}) {
		t.Error("negative color must be invalid")
	}
	if !validEdgeColoring(3, edges, []int{0, 1}) {
		t.Error("proper coloring rejected")
	}
}

// referenceMIS is the greedy maximal independent set the partition's
// rounds are defined by: vertices in ascending (degree, vertex) order, each
// taken unless a neighbour was. The result is sorted ascending.
func referenceMIS(n int, adj [][]int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		da, db := len(adj[order[a]]), len(adj[order[b]])
		if da != db {
			return da < db
		}
		return order[a] < order[b]
	})
	blocked := make([]bool, n)
	var set []int
	for _, v := range order {
		if blocked[v] {
			continue
		}
		set = append(set, v)
		blocked[v] = true
		for _, w := range adj[v] {
			blocked[w] = true
		}
	}
	sort.Ints(set)
	return set
}

// referencePartition is the partition spelled out: every round rebuilds
// the subgraph induced by the ungrouped vertices and takes referenceMIS of
// it. PartitionIntoIndependentSets must return exactly its groups.
func referencePartition(n int, adj [][]int) [][]int {
	remaining := make([]bool, n)
	for i := range remaining {
		remaining[i] = true
	}
	left := n
	var groups [][]int
	for left > 0 {
		idx := make([]int, 0, left)
		pos := make([]int, n)
		for i := range pos {
			pos[i] = -1
		}
		for v := 0; v < n; v++ {
			if remaining[v] {
				pos[v] = len(idx)
				idx = append(idx, v)
			}
		}
		sub := make([][]int, len(idx))
		for si, v := range idx {
			for _, w := range adj[v] {
				if remaining[w] {
					sub[si] = append(sub[si], pos[w])
				}
			}
		}
		mis := referenceMIS(len(idx), sub)
		group := make([]int, len(mis))
		for i, si := range mis {
			group[i] = idx[si]
			remaining[idx[si]] = false
		}
		left -= len(group)
		groups = append(groups, group)
	}
	return groups
}

// randomAdj builds a symmetric adjacency with edge probability p; each
// row lists lower neighbours then higher ones, as the conflict-graph
// builders do.
func randomAdj(r *rand.Rand, n int, p float64) [][]int {
	adj := make([][]int, n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if r.Float64() < p {
				adj[u] = append(adj[u], v)
				adj[v] = append(adj[v], u)
			}
		}
	}
	return adj
}

// bitMatrix renders a symmetric adjacency as the conflict bit matrix
// PartitionIntoIndependentSets reads.
func bitMatrix(n int, adj [][]int) []uint64 {
	words := (n + 63) / 64
	m := make([]uint64, n*words)
	for v, row := range adj {
		for _, w := range row {
			m[v*words+w/64] |= 1 << (w % 64)
		}
	}
	return m
}

// adjacencyPartition is the partition as it ran on adjacency lists before
// it read the bit matrix: the same rounds, with each grouped vertex's
// neighbours taken from adj. It is the oracle the bit-matrix partition
// must match group for group.
func adjacencyPartition(n int, adj [][]int) [][]int {
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

// TestMaximalIndependentSet checks the partition's first round: on the
// whole graph it must be a maximal independent set, the reference greedy
// one.
func TestMaximalIndependentSet(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	for iter := 0; iter < 200; iter++ {
		n := 1 + r.Intn(15)
		adj := randomAdj(r, n, 0.3)
		set := PartitionIntoIndependentSets(n, bitMatrix(n, adj))[0]
		if !isMaximalIndependent(n, adj, set) {
			t.Fatalf("iter %d: set %v not maximal independent, adj=%v", iter, set, adj)
		}
		if want := referenceMIS(n, adj); !slices.Equal(set, want) {
			t.Fatalf("iter %d: first group %v, reference %v", iter, set, want)
		}
	}
}

func TestMISNoEdgesTakesAll(t *testing.T) {
	adj := make([][]int, 6)
	if groups := PartitionIntoIndependentSets(6, bitMatrix(6, adj)); len(groups) != 1 || len(groups[0]) != 6 {
		t.Fatalf("expected one group of all 6 vertices, got %v", groups)
	}
}

// TestPartitionMatchesReference requires group-by-group equality with the
// rebuild-the-subgraph reference on random graphs from nearly empty to as
// dense as real move-conflict graphs, and on empty graphs, cliques and
// stars.
func TestPartitionMatchesReference(t *testing.T) {
	check := func(name string, n int, adj [][]int) {
		t.Helper()
		got, want := PartitionIntoIndependentSets(n, bitMatrix(n, adj)), referencePartition(n, adj)
		if !slices.EqualFunc(got, want, slices.Equal[[]int]) {
			t.Fatalf("%s (n=%d): groups %v, reference %v", name, n, got, want)
		}
		if oracle := adjacencyPartition(n, adj); !slices.EqualFunc(got, oracle, slices.Equal[[]int]) {
			t.Fatalf("%s (n=%d): groups %v, adjacency-list partition %v", name, n, got, oracle)
		}
	}
	r := rand.New(rand.NewSource(45))
	densities := []float64{0.01, 0.05, 0.1, 0.2, 0.35, 0.6, 0.85}
	for iter := 0; iter < 60; iter++ {
		n := 1 + r.Intn(300)
		check("random", n, randomAdj(r, n, densities[iter%len(densities)]))
	}
	for _, n := range []int{0, 1, 7, 40} {
		check("empty", n, make([][]int, n))
		check("clique", n, randomAdj(r, n, 1))
		star := make([][]int, n)
		for v := 1; v < n; v++ {
			star[0] = append(star[0], v)
			star[v] = append(star[v], 0)
		}
		check("star", n, star)
	}
}

// TestPartitionBitMatrixMatchesAdjacency is the property test of the bit
// matrix: on random graphs around the 64-bit word boundary, from empty to
// complete, the partition must return the adjacency-list partition's
// groups.
func TestPartitionBitMatrixMatchesAdjacency(t *testing.T) {
	r := rand.New(rand.NewSource(46))
	for _, n := range []int{0, 1, 2, 63, 64, 65, 127, 128, 129, 200} {
		for _, p := range []float64{0, 0.02, 0.1, 0.5, 0.8, 0.97, 1} {
			for iter := 0; iter < 3; iter++ {
				adj := randomAdj(r, n, p)
				got := PartitionIntoIndependentSets(n, bitMatrix(n, adj))
				if want := adjacencyPartition(n, adj); !slices.EqualFunc(got, want, slices.Equal[[]int]) {
					t.Fatalf("n=%d p=%v iter %d: groups %v, adjacency-list partition %v", n, p, iter, got, want)
				}
			}
		}
	}
}

func TestPartitionIntoIndependentSets(t *testing.T) {
	r := rand.New(rand.NewSource(44))
	for iter := 0; iter < 100; iter++ {
		n := 1 + r.Intn(12)
		adj := make([][]int, n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if r.Float64() < 0.4 {
					adj[u] = append(adj[u], v)
					adj[v] = append(adj[v], u)
				}
			}
		}
		groups := PartitionIntoIndependentSets(n, bitMatrix(n, adj))
		covered := make([]bool, n)
		total := 0
		for _, g := range groups {
			if !isIndependent(adj, g) {
				t.Fatalf("iter %d: group %v not independent", iter, g)
			}
			for _, v := range g {
				if covered[v] {
					t.Fatalf("iter %d: vertex %d in two groups", iter, v)
				}
				covered[v] = true
				total++
			}
		}
		if total != n {
			t.Fatalf("iter %d: covered %d of %d vertices", iter, total, n)
		}
	}
}

func TestPartitionCliqueNeedsNGroups(t *testing.T) {
	n := 5
	adj := make([][]int, n)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v {
				adj[u] = append(adj[u], v)
			}
		}
	}
	groups := PartitionIntoIndependentSets(n, bitMatrix(n, adj))
	if len(groups) != n {
		t.Fatalf("clique should need %d groups, got %d", n, len(groups))
	}
}

func BenchmarkMisraGries(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	edges := randomGraph(r, 100, 0.1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MisraGries(100, edges)
	}
}

var partitionSink [][]int

// BenchmarkPartitionIntoIndependentSets partitions a 300-vertex conflict
// graph with 80% of pairs conflicting, the shape of the widest move
// phases of large compiles (up to 256 moves, 70–90% of pairs in conflict).
func BenchmarkPartitionIntoIndependentSets(b *testing.B) {
	r := rand.New(rand.NewSource(2))
	n := 300
	conflict := bitMatrix(n, randomAdj(r, n, 0.8))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		partitionSink = PartitionIntoIndependentSets(n, conflict)
	}
}

// greedyEdgeColoring colors edges greedily in the given order with the lowest
// color not used at either endpoint. It uses at most 2Δ−1 colors.
func greedyEdgeColoring(n int, edges []Edge) []int {
	used := make([]map[int]bool, n)
	for v := range used {
		used[v] = make(map[int]bool)
	}
	colors := make([]int, len(edges))
	for i, e := range edges {
		c := 0
		for used[e.U][c] || used[e.V][c] {
			c++
		}
		colors[i] = c
		used[e.U][c] = true
		used[e.V][c] = true
	}
	return colors
}

// validEdgeColoring reports whether no two edges sharing a vertex have the
// same color.
func validEdgeColoring(n int, edges []Edge, colors []int) bool {
	if len(colors) != len(edges) {
		return false
	}
	seen := make(map[[2]int]bool) // (vertex, color)
	for i, e := range edges {
		c := colors[i]
		if c < 0 {
			return false
		}
		ku, kv := [2]int{e.U, c}, [2]int{e.V, c}
		if seen[ku] || seen[kv] {
			return false
		}
		seen[ku] = true
		seen[kv] = true
	}
	return true
}

// isIndependent reports whether set is an independent set of adj.
func isIndependent(adj [][]int, set []int) bool {
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

// isMaximalIndependent reports whether set is independent and no vertex can
// be added without breaking independence.
func isMaximalIndependent(n int, adj [][]int, set []int) bool {
	if !isIndependent(adj, set) {
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
