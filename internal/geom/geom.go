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

// Sub returns p - q as a vector.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Add returns p + q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Dist returns the Euclidean distance between p and q in µm.
func (p Point) Dist(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// Norm returns the Euclidean norm of p viewed as a vector.
func (p Point) Norm() float64 { return math.Sqrt(p.X*p.X + p.Y*p.Y) }

// Eq reports whether p and q coincide to within tol (µm).
func (p Point) Eq(q Point, tol float64) bool {
	return math.Abs(p.X-q.X) <= tol && math.Abs(p.Y-q.Y) <= tol
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

// MoveTimeBetween returns the movement duration between two points.
func MoveTimeBetween(p, q Point) float64 { return MoveTime(p.Dist(q)) }

// Rect is an axis-aligned rectangle given by its lower-left corner and size.
type Rect struct {
	Min  Point
	Size Point
}

// Max returns the upper-right corner.
func (r Rect) Max() Point { return Point{r.Min.X + r.Size.X, r.Min.Y + r.Size.Y} }

// Contains reports whether p lies inside r (inclusive of boundaries).
func (r Rect) Contains(p Point) bool {
	mx := r.Max()
	return p.X >= r.Min.X && p.X <= mx.X && p.Y >= r.Min.Y && p.Y <= mx.Y
}

// Intersects reports whether two rectangles overlap (touching counts).
func (r Rect) Intersects(s Rect) bool {
	rm, sm := r.Max(), s.Max()
	return r.Min.X <= sm.X && s.Min.X <= rm.X && r.Min.Y <= sm.Y && s.Min.Y <= rm.Y
}

// BBox is an accumulating bounding box over a set of points.
type BBox struct {
	MinX, MinY, MaxX, MaxY float64
	empty                  bool
}

var emptyBBox = BBox{
	MinX: math.Inf(1), MinY: math.Inf(1),
	MaxX: math.Inf(-1), MaxY: math.Inf(-1),
	empty: true,
}

// NewBBox returns an empty bounding box. It is small enough to inline, so
// a box that does not outlive its caller stays on the stack.
func NewBBox() *BBox {
	b := emptyBBox
	return &b
}

// Extend grows the box to include p.
func (b *BBox) Extend(p Point) {
	b.empty = false
	b.MinX = math.Min(b.MinX, p.X)
	b.MinY = math.Min(b.MinY, p.Y)
	b.MaxX = math.Max(b.MaxX, p.X)
	b.MaxY = math.Max(b.MaxY, p.Y)
}

// Empty reports whether no point has been added.
func (b *BBox) Empty() bool { return b.empty }

// Contains reports whether p lies inside the box (inclusive).
func (b *BBox) Contains(p Point) bool {
	return !b.empty && p.X >= b.MinX && p.X <= b.MaxX && p.Y >= b.MinY && p.Y <= b.MaxY
}

// ContainsXY is Contains for raw coordinates.
func (b *BBox) ContainsXY(x, y float64) bool { return b.Contains(Point{x, y}) }
