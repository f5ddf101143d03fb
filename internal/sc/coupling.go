// Package sc implements the superconducting-qubit baselines of the paper's
// evaluation (§VII-A): IBM's 127-qubit heavy-hexagon coupling graph (Heron,
// ibm_torino parameters) and an 11×11 grid coupling graph (Google
// sycamore-style parameters), routed with a SABRE-style swap-insertion
// router and evaluated under the Table I fidelity model.
package sc

import "fmt"

// Coupling is an undirected device connectivity graph.
type Coupling struct {
	Name string
	N    int
	Adj  [][]int
}

func newCoupling(name string, n int) *Coupling {
	return &Coupling{Name: name, N: n, Adj: make([][]int, n)}
}

func (c *Coupling) addEdge(a, b int) {
	if a == b || a < 0 || b < 0 || a >= c.N || b >= c.N {
		panic(fmt.Sprintf("sc: bad edge %d-%d on %s", a, b, c.Name))
	}
	for _, v := range c.Adj[a] {
		if v == b {
			return
		}
	}
	c.Adj[a] = append(c.Adj[a], b)
	c.Adj[b] = append(c.Adj[b], a)
}

// Adjacent reports whether a and b share a coupler.
func (c *Coupling) Adjacent(a, b int) bool {
	for _, v := range c.Adj[a] {
		if v == b {
			return true
		}
	}
	return false
}

// Grid builds an r×c nearest-neighbor grid coupling.
func Grid(rows, cols int) *Coupling {
	g := newCoupling(fmt.Sprintf("grid_%dx%d", rows, cols), rows*cols)
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				g.addEdge(id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				g.addEdge(id(r, c), id(r+1, c))
			}
		}
	}
	return g
}

// HeavyHex127 builds the 127-qubit heavy-hexagon coupling graph used by
// IBM's Eagle/Heron processors: seven horizontal rows of qubits (14, 15,
// 15, 15, 15, 15, 14) joined by six rows of four bridge qubits, with the
// bridge attachment offset alternating between column 0 and column 2.
func HeavyHex127() *Coupling {
	g := newCoupling("heavy_hex_127", 127)
	rowLens := []int{14, 15, 15, 15, 15, 15, 14}
	// Assign indices: row, then its bridge row.
	rowStart := make([]int, len(rowLens))
	bridgeStart := make([]int, len(rowLens)-1)
	idx := 0
	for i, l := range rowLens {
		rowStart[i] = idx
		idx += l
		if i < len(rowLens)-1 {
			bridgeStart[i] = idx
			idx += 4
		}
	}
	if idx != 127 {
		panic("sc: heavy-hex construction error")
	}
	// Row-internal couplers.
	for i, l := range rowLens {
		for k := 0; k+1 < l; k++ {
			g.addEdge(rowStart[i]+k, rowStart[i]+k+1)
		}
	}
	// Bridges: connector j of bridge row i attaches column 4j+offset of the
	// rows above and below, with offset alternating 0, 2, 0, 2, ...
	for i := 0; i < len(rowLens)-1; i++ {
		offset := 0
		if i%2 == 1 {
			offset = 2
		}
		for j := 0; j < 4; j++ {
			col := 4*j + offset
			up := rowStart[i] + minInt(col, rowLens[i]-1)
			down := rowStart[i+1] + minInt(col, rowLens[i+1]-1)
			b := bridgeStart[i] + j
			g.addEdge(b, up)
			g.addEdge(b, down)
		}
	}
	return g
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// ShortestPath returns a BFS shortest path from a to b (inclusive), or nil
// if unreachable.
func (c *Coupling) ShortestPath(a, b int) []int {
	if a == b {
		return []int{a}
	}
	prev := make([]int, c.N)
	for i := range prev {
		prev[i] = -1
	}
	prev[a] = a
	queue := []int{a}
	for qi := 0; qi < len(queue); qi++ {
		u := queue[qi]
		for _, v := range c.Adj[u] {
			if prev[v] != -1 {
				continue
			}
			prev[v] = u
			if v == b {
				var path []int
				for x := b; x != a; x = prev[x] {
					path = append(path, x)
				}
				path = append(path, a)
				for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
					path[i], path[j] = path[j], path[i]
				}
				return path
			}
			queue = append(queue, v)
		}
	}
	return nil
}
