// Package graphalgo implements the graph algorithms the compiler stack needs:
// Misra–Gries edge coloring (used by the Enola baseline to schedule entangling
// gates into a near-optimal number of Rydberg stages) and greedy maximal
// independent sets (used to group compatible qubit movements into
// rearrangement jobs, paper §VI).
package graphalgo

// Edge is an undirected edge between vertices U and V.
type Edge struct {
	U, V int
}

// MisraGries edge-colors an undirected simple graph with at most Δ+1 colors
// (Vizing's bound), where Δ is the maximum degree. It returns one color
// (0-based) per edge, in the order the edges were given. Self-loops and
// duplicate edges are not supported and yield unspecified colorings.
func MisraGries(n int, edges []Edge) []int {
	if len(edges) == 0 {
		return nil
	}
	// Degree and Δ.
	deg := make([]int, n)
	for _, e := range edges {
		deg[e.U]++
		deg[e.V]++
	}
	maxDeg := 0
	for _, d := range deg {
		if d > maxDeg {
			maxDeg = d
		}
	}
	numColors := maxDeg + 1

	// colorAt[v][c] = index of the edge at v colored c, or -1.
	colorAt := make([][]int, n)
	for v := range colorAt {
		colorAt[v] = make([]int, numColors)
		for c := range colorAt[v] {
			colorAt[v][c] = -1
		}
	}
	color := make([]int, len(edges))
	for i := range color {
		color[i] = -1
	}
	// incident[v] = edges touching v (indices).
	incident := make([][]int, n)
	for i, e := range edges {
		incident[e.U] = append(incident[e.U], i)
		incident[e.V] = append(incident[e.V], i)
	}

	other := func(ei, v int) int {
		if edges[ei].U == v {
			return edges[ei].V
		}
		return edges[ei].U
	}
	freeColor := func(v int) int {
		for c := 0; c < numColors; c++ {
			if colorAt[v][c] == -1 {
				return c
			}
		}
		return -1 // cannot happen: deg(v) ≤ Δ < numColors
	}
	isFree := func(v, c int) bool { return colorAt[v][c] == -1 }

	setColor := func(ei, c int) {
		e := edges[ei]
		if old := color[ei]; old != -1 {
			// During fan rotation another edge may already have taken over
			// this color slot; only clear entries that still point here.
			if colorAt[e.U][old] == ei {
				colorAt[e.U][old] = -1
			}
			if colorAt[e.V][old] == ei {
				colorAt[e.V][old] = -1
			}
		}
		color[ei] = c
		colorAt[e.U][c] = ei
		colorAt[e.V][c] = ei
	}

	for xi, e := range edges {
		u := e.U
		// Build a maximal fan of u starting at edge xi: a sequence of distinct
		// neighbors f0..fk such that color(u, f_{i+1}) is free on f_i.
		fanEdges := []int{xi}
		fanVerts := []int{e.V}
		inFan := map[int]bool{e.V: true}
		for {
			last := fanVerts[len(fanVerts)-1]
			extended := false
			for _, ei2 := range incident[u] {
				c2 := color[ei2]
				if c2 == -1 {
					continue
				}
				w := other(ei2, u)
				if inFan[w] {
					continue
				}
				if isFree(last, c2) {
					fanEdges = append(fanEdges, ei2)
					fanVerts = append(fanVerts, w)
					inFan[w] = true
					extended = true
					break
				}
			}
			if !extended {
				break
			}
		}

		cFreeU := freeColor(u)
		last := fanVerts[len(fanVerts)-1]
		dFree := freeColor(last)

		// Invert the cd_u path: the maximal path starting at u that
		// alternates colors d and c. Collect the path first, then flip —
		// flipping while walking would revisit just-flipped edges.
		if dFree != cFreeU && !isFree(u, dFree) {
			var path []int
			v := u
			curColor := dFree
			for {
				ei2 := colorAt[v][curColor]
				if ei2 == -1 {
					break
				}
				path = append(path, ei2)
				v = other(ei2, v)
				if curColor == dFree {
					curColor = cFreeU
				} else {
					curColor = dFree
				}
			}
			for _, ei2 := range path {
				if color[ei2] == dFree {
					setColor(ei2, cFreeU)
				} else {
					setColor(ei2, dFree)
				}
			}
		}

		// After inversion d is free on u. Take the first fan vertex w with
		// d free whose prefix is still a fan under the inverted colors (the
		// inversion may have recolored fan edges), rotate the fan up to w,
		// and color (u,w) with d.
		isFanPrefix := func(k int) bool {
			for i := 1; i <= k; i++ {
				col := color[fanEdges[i]]
				if col == -1 || !isFree(fanVerts[i-1], col) {
					return false
				}
			}
			return true
		}
		wIdx := -1
		for i := 0; i < len(fanVerts); i++ {
			if isFree(fanVerts[i], dFree) && isFanPrefix(i) {
				wIdx = i
				break
			}
		}
		if wIdx == -1 {
			// Cannot happen per the MG lemma; guard with a fresh color
			// search to preserve validity regardless.
			for c := 0; c < numColors; c++ {
				if isFree(u, c) && isFree(fanVerts[0], c) {
					setColor(fanEdges[0], c)
					break
				}
			}
			continue
		}
		// Rotate: edge i gets the color of edge i+1.
		for i := 0; i < wIdx; i++ {
			setColor(fanEdges[i], color[fanEdges[i+1]])
		}
		setColor(fanEdges[wIdx], dFree)
	}
	return color
}

// NumColors returns 1 + max(colors), or 0 for an empty slice.
func NumColors(colors []int) int {
	max := -1
	for _, c := range colors {
		if c > max {
			max = c
		}
	}
	return max + 1
}
