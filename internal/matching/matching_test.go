package matching

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// bruteMaxMatching finds the true maximum matching size by exhaustive search.
func bruteMaxMatching(adj [][]int, nRight int) int {
	usedR := make([]bool, nRight)
	var rec func(u int) int
	rec = func(u int) int {
		if u == len(adj) {
			return 0
		}
		best := rec(u + 1) // skip u
		for _, v := range adj[u] {
			if !usedR[v] {
				usedR[v] = true
				if got := 1 + rec(u+1); got > best {
					best = got
				}
				usedR[v] = false
			}
		}
		return best
	}
	return rec(0)
}

func validMatching(t *testing.T, adj [][]int, nRight int, matchL []int) {
	t.Helper()
	seen := make(map[int]int)
	for u, v := range matchL {
		if v == -1 {
			continue
		}
		if v < 0 || v >= nRight {
			t.Fatalf("match out of range: %d -> %d", u, v)
		}
		ok := false
		for _, w := range adj[u] {
			if w == v {
				ok = true
				break
			}
		}
		if !ok {
			t.Fatalf("matched along non-edge %d -> %d", u, v)
		}
		if prev, dup := seen[v]; dup {
			t.Fatalf("right vertex %d matched twice (%d and %d)", v, prev, u)
		}
		seen[v] = u
	}
}

func TestHopcroftKarpSmall(t *testing.T) {
	adj := [][]int{{0, 1}, {0}, {1, 2}}
	matchL, size := new(HopcroftKarp).Match(adj, 3)
	if size != 3 {
		t.Fatalf("size = %d, want 3", size)
	}
	validMatching(t, adj, 3, matchL)
}

func TestHopcroftKarpNoEdges(t *testing.T) {
	adj := [][]int{{}, {}, {}}
	matchL, size := new(HopcroftKarp).Match(adj, 4)
	if size != 0 {
		t.Fatalf("size = %d, want 0", size)
	}
	for _, v := range matchL {
		if v != -1 {
			t.Fatal("unexpected match")
		}
	}
}

func TestHopcroftKarpEmpty(t *testing.T) {
	matchL, size := new(HopcroftKarp).Match(nil, 0)
	if size != 0 || len(matchL) != 0 {
		t.Fatal("empty graph should yield empty matching")
	}
}

func TestHopcroftKarpContention(t *testing.T) {
	// All left vertices want the single right vertex.
	adj := [][]int{{0}, {0}, {0}}
	matchL, size := new(HopcroftKarp).Match(adj, 1)
	if size != 1 {
		t.Fatalf("size = %d, want 1", size)
	}
	validMatching(t, adj, 1, matchL)
}

// TestHopcroftKarpMatchesBruteForce reuses one matcher across graphs of
// varying shape, as placement does, and requires each matching to equal a
// fresh matcher's.
func TestHopcroftKarpMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	var h HopcroftKarp
	for iter := 0; iter < 300; iter++ {
		nL := 1 + r.Intn(7)
		nR := 1 + r.Intn(7)
		adj := make([][]int, nL)
		for u := range adj {
			for v := 0; v < nR; v++ {
				if r.Float64() < 0.4 {
					adj[u] = append(adj[u], v)
				}
			}
		}
		fresh, _ := new(HopcroftKarp).Match(adj, nR)
		matchL, size := h.Match(adj, nR)
		validMatching(t, adj, nR, matchL)
		if want := bruteMaxMatching(adj, nR); size != want {
			t.Fatalf("iter %d: size %d, brute force %d, adj=%v", iter, size, want, adj)
		}
		if !slices.Equal(matchL, fresh) {
			t.Fatalf("iter %d: reused matcher gave %v, fresh %v", iter, matchL, fresh)
		}
	}
}

func TestHopcroftKarpPerfectOnCompleteGraph(t *testing.T) {
	f := func(nRaw uint8) bool {
		n := int(nRaw%8) + 1
		adj := make([][]int, n)
		for u := range adj {
			for v := 0; v < n; v++ {
				adj[u] = append(adj[u], v)
			}
		}
		_, size := new(HopcroftKarp).Match(adj, n)
		return size == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// bruteAssignment finds min-cost full assignment by exhaustive permutation.
func bruteAssignment(cost [][]float64) (float64, bool) {
	n, m := len(cost), len(cost[0])
	usedC := make([]bool, m)
	best := math.Inf(1)
	var rec func(i int, acc float64)
	rec = func(i int, acc float64) {
		if acc >= best {
			return
		}
		if i == n {
			best = acc
			return
		}
		for j := 0; j < m; j++ {
			if !usedC[j] && !math.IsInf(cost[i][j], 1) {
				usedC[j] = true
				rec(i+1, acc+cost[i][j])
				usedC[j] = false
			}
		}
	}
	rec(0, 0)
	return best, !math.IsInf(best, 1)
}

func TestJVSquareKnown(t *testing.T) {
	cost := [][]float64{
		{4, 1, 3},
		{2, 0, 5},
		{3, 2, 2},
	}
	rowTo, total, err := MinWeightFullMatching(cost)
	if err != nil {
		t.Fatal(err)
	}
	if total != 5 { // 1 + 2 + 2
		t.Fatalf("total = %v, want 5 (assignment %v)", total, rowTo)
	}
}

func TestJVRectangular(t *testing.T) {
	cost := [][]float64{
		{10, 3, 8, 1},
		{7, 9, 2, 6},
	}
	rowTo, total, err := MinWeightFullMatching(cost)
	if err != nil {
		t.Fatal(err)
	}
	if total != 3 { // 1 + 2
		t.Fatalf("total = %v (assignment %v), want 3", total, rowTo)
	}
	if rowTo[0] == rowTo[1] {
		t.Fatal("two rows assigned same column")
	}
}

func TestJVInfeasible(t *testing.T) {
	inf := math.Inf(1)
	cost := [][]float64{
		{1, inf},
		{2, inf},
	}
	if _, _, err := MinWeightFullMatching(cost); err == nil {
		t.Fatal("expected ErrNoFullMatching")
	}
}

func TestJVMoreRowsThanCols(t *testing.T) {
	cost := [][]float64{{1}, {2}}
	if _, _, err := MinWeightFullMatching(cost); err == nil {
		t.Fatal("expected error for n > m")
	}
}

func TestJVEmpty(t *testing.T) {
	rowTo, total, err := MinWeightFullMatching(nil)
	if err != nil || total != 0 || rowTo != nil {
		t.Fatalf("empty: %v %v %v", rowTo, total, err)
	}
}

func TestJVForbiddenEdgesRespected(t *testing.T) {
	inf := math.Inf(1)
	cost := [][]float64{
		{inf, 1, inf},
		{1, inf, inf},
		{inf, inf, 1},
	}
	rowTo, total, err := MinWeightFullMatching(cost)
	if err != nil {
		t.Fatal(err)
	}
	if total != 3 || rowTo[0] != 1 || rowTo[1] != 0 || rowTo[2] != 2 {
		t.Fatalf("got %v total %v", rowTo, total)
	}
}

func TestJVMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for iter := 0; iter < 400; iter++ {
		n := 1 + r.Intn(5)
		m := n + r.Intn(3)
		cost := make([][]float64, n)
		for i := range cost {
			cost[i] = make([]float64, m)
			for j := range cost[i] {
				if r.Float64() < 0.15 {
					cost[i][j] = math.Inf(1)
				} else {
					cost[i][j] = math.Round(r.Float64()*100) / 4
				}
			}
		}
		want, feasible := bruteAssignment(cost)
		rowTo, total, err := MinWeightFullMatching(cost)
		if !feasible {
			if err == nil {
				t.Fatalf("iter %d: expected infeasible, got %v / %v", iter, rowTo, total)
			}
			continue
		}
		if err != nil {
			t.Fatalf("iter %d: unexpected error %v for cost %v", iter, err, cost)
		}
		if math.Abs(total-want) > 1e-9 {
			t.Fatalf("iter %d: total %v, brute force %v, cost %v", iter, total, want, cost)
		}
		// Assignment must be a valid injection.
		seen := make(map[int]bool)
		for i, j := range rowTo {
			if j < 0 || j >= m || seen[j] || math.IsInf(cost[i][j], 1) {
				t.Fatalf("iter %d: invalid assignment %v", iter, rowTo)
			}
			seen[j] = true
		}
	}
}

func TestJVNegativeCosts(t *testing.T) {
	cost := [][]float64{
		{-5, 2},
		{3, -4},
	}
	_, total, err := MinWeightFullMatching(cost)
	if err != nil {
		t.Fatal(err)
	}
	if total != -9 {
		t.Fatalf("total = %v, want -9", total)
	}
}

func BenchmarkHopcroftKarp(b *testing.B) {
	r := rand.New(rand.NewSource(3))
	n := 200
	adj := make([][]int, n)
	for u := range adj {
		for v := 0; v < n; v++ {
			if r.Float64() < 0.05 {
				adj[u] = append(adj[u], v)
			}
		}
	}
	var h HopcroftKarp
	b.ReportAllocs()
	for b.Loop() {
		h.Match(adj, n)
	}
}

func BenchmarkJV(b *testing.B) {
	r := rand.New(rand.NewSource(3))
	n := 80
	cost := make([][]float64, n)
	for i := range cost {
		cost[i] = make([]float64, n)
		for j := range cost[i] {
			cost[i][j] = r.Float64() * 100
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := MinWeightFullMatching(cost); err != nil {
			b.Fatal(err)
		}
	}
}
