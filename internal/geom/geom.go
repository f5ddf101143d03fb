// Package geom provides the 2D geometry primitives used throughout the
// compiler: points in the plane (µm coordinates), Euclidean distances,
// bounding boxes, and the atom-movement time law from Bluvstein et al.,
// Nature 604 (2022), which the paper adopts: d/t² = a with a = 2750 m/s².
package geom

import "math"

// Accel is the constant movement acceleration parameter a in µm/µs²
// (2750 m/s² = 2.75e-3 µm/µs² ... careful: 2750 m/s² = 2750e6 µm / 1e12 µs²
// = 2.75e-3 µm/µs²). The paper computes movement time t from distance d via
// d/t² = a, i.e. t = sqrt(d/a).
const Accel = 2.75e-3 // µm/µs²

// Point is a location in the plane, in µm.
type Point struct {
	X, Y float64
}

// Dist returns the Euclidean distance between p and q in µm.
func (p Point) Dist(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// MoveTime returns the duration in µs of an atom movement covering Euclidean
// distance d µm, per the constant-jerk profile d/t² = Accel used in the paper
// ("we calculate the movement time t based on the relation d/t² = 2750 m/s²").
// A zero or negative distance takes zero time.
func MoveTime(d float64) float64 {
	if d <= 0 {
		return 0
	}
	return math.Sqrt(d / Accel)
}

// BBox is an accumulating bounding box over a set of points. An empty
// box has infinite bounds with Min above Max, so no point lies inside it.
type BBox struct {
	MinX, MinY, MaxX, MaxY float64
}

var emptyBBox = BBox{
	MinX: math.Inf(1), MinY: math.Inf(1),
	MaxX: math.Inf(-1), MaxY: math.Inf(-1),
}

// NewBBox returns an empty bounding box. It is small enough to inline, so
// a box that does not outlive its caller stays on the stack.
func NewBBox() *BBox {
	b := emptyBBox
	return &b
}

// Extend grows the box to include p.
func (b *BBox) Extend(p Point) {
	b.MinX = math.Min(b.MinX, p.X)
	b.MinY = math.Min(b.MinY, p.Y)
	b.MaxX = math.Max(b.MaxX, p.X)
	b.MaxY = math.Max(b.MaxY, p.Y)
}
