package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDist(t *testing.T) {
	cases := []struct {
		p, q Point
		want float64
	}{
		{Point{0, 0}, Point{3, 4}, 5},
		{Point{1, 1}, Point{1, 1}, 0},
		{Point{-1, -1}, Point{2, 3}, 5},
		{Point{0, 19}, Point{13, 9}, math.Sqrt(13*13 + 10*10)}, // paper's Fig. 5 example: d(ω00, s34)=16.40
	}
	for _, c := range cases {
		if got := c.p.Dist(c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Dist(%v,%v) = %v, want %v", c.p, c.q, got, c.want)
		}
	}
}

func TestPaperDistanceExample(t *testing.T) {
	// Fig. 5: d(ω0,0, s3,4) = 16.40 and d(ω0,0, s3,0) = 10.05.
	site := Point{0, 19}
	s34 := Point{13, 9}
	s30 := Point{1, 9}
	if d := site.Dist(s34); math.Abs(d-16.40) > 0.01 {
		t.Errorf("d(site, s34) = %.3f, want 16.40", d)
	}
	if d := site.Dist(s30); math.Abs(d-10.05) > 0.01 {
		t.Errorf("d(site, s30) = %.3f, want 10.05", d)
	}
}

func TestMoveTime(t *testing.T) {
	if MoveTime(0) != 0 {
		t.Error("zero distance must take zero time")
	}
	if MoveTime(-5) != 0 {
		t.Error("negative distance must take zero time")
	}
	// d = a * t^2: at t=100µs, d = 2.75e-3 * 1e4 = 27.5µm.
	if got := MoveTime(27.5); math.Abs(got-100) > 1e-9 {
		t.Errorf("MoveTime(27.5µm) = %v µs, want 100", got)
	}
	// The paper's ZAIR example: moving (32,10)µm takes ≈110.4µs so that the
	// whole job (15µs pickup + move + 15µs drop) spans ≈140.4µs.
	d := math.Sqrt(32*32 + 10*10)
	if got := MoveTime(d); math.Abs(got-110.4) > 0.5 {
		t.Errorf("MoveTime(%.2fµm) = %.2f µs, want ≈110.4", d, got)
	}
}

func TestMoveTimeMonotone(t *testing.T) {
	f := func(a, b float64) bool {
		a, b = math.Abs(a), math.Abs(b)
		if a > b {
			a, b = b, a
		}
		return MoveTime(a) <= MoveTime(b)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDistSymmetricAndTriangle(t *testing.T) {
	sym := func(ax, ay, bx, by int16) bool {
		p, q := Point{float64(ax), float64(ay)}, Point{float64(bx), float64(by)}
		return math.Abs(p.Dist(q)-q.Dist(p)) < 1e-9
	}
	if err := quick.Check(sym, nil); err != nil {
		t.Error(err)
	}
	tri := func(ax, ay, bx, by, cx, cy int8) bool {
		p, q, r := Point{float64(ax), float64(ay)}, Point{float64(bx), float64(by)}, Point{float64(cx), float64(cy)}
		return p.Dist(r) <= p.Dist(q)+q.Dist(r)+1e-9
	}
	if err := quick.Check(tri, nil); err != nil {
		t.Error(err)
	}
}

func TestRect(t *testing.T) {
	r := Rect{Min: Point{0, 0}, Size: Point{10, 5}}
	if !contains(r, Point{0, 0}) || !contains(r, Point{10, 5}) || !contains(r, Point{5, 2}) {
		t.Error("Contains failed on inside/boundary points")
	}
	if contains(r, Point{10.1, 0}) || contains(r, Point{0, -0.1}) {
		t.Error("Contains accepted outside point")
	}
	s := Rect{Min: Point{9, 4}, Size: Point{3, 3}}
	if !intersects(r, s) || !intersects(s, r) {
		t.Error("Intersects failed on overlapping rects")
	}
	far := Rect{Min: Point{100, 100}, Size: Point{1, 1}}
	if intersects(r, far) {
		t.Error("Intersects claimed overlap for disjoint rects")
	}
}

func TestBBox(t *testing.T) {
	b := NewBBox()
	if b.contains(Point{0, 0}) {
		t.Error("empty bbox must not contain anything")
	}
	b.Extend(Point{1, 2})
	b.Extend(Point{-3, 7})
	for _, p := range []Point{{1, 2}, {-3, 7}, {0, 5}, {-3, 2}} {
		if !b.contains(p) {
			t.Errorf("bbox should contain %v", p)
		}
	}
	if b.contains(Point{2, 2}) || b.contains(Point{0, 8}) {
		t.Error("bbox contains point outside")
	}
}

func TestVectorOps(t *testing.T) {
	p, q := Point{3, 4}, Point{1, 1}
	if got := sub(p, q); got != (Point{2, 3}) {
		t.Errorf("Sub = %v", got)
	}
	if got := add(p, q); got != (Point{4, 5}) {
		t.Errorf("Add = %v", got)
	}
	if got := norm(p); math.Abs(got-5) > 1e-12 {
		t.Errorf("Norm = %v", got)
	}
	if !eq(p, Point{3.0000001, 4}, 1e-3) || eq(p, q, 1e-3) {
		t.Error("Eq tolerance behaviour wrong")
	}
}

// The vector and rectangle operations below are test fixtures: the
// compiler itself needs only Dist, MoveTime and BBox.

func sub(p, q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

func add(p, q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

func norm(p Point) float64 { return math.Sqrt(p.X*p.X + p.Y*p.Y) }

// eq reports whether p and q coincide to within tol (µm).
func eq(p, q Point, tol float64) bool {
	return math.Abs(p.X-q.X) <= tol && math.Abs(p.Y-q.Y) <= tol
}

// Rect is an axis-aligned rectangle given by its lower-left corner and size.
type Rect struct {
	Min  Point
	Size Point
}

// contains reports whether p lies inside r (inclusive of boundaries).
func contains(r Rect, p Point) bool {
	mx := add(r.Min, r.Size)
	return p.X >= r.Min.X && p.X <= mx.X && p.Y >= r.Min.Y && p.Y <= mx.Y
}

// intersects reports whether two rectangles overlap (touching counts).
func intersects(r, s Rect) bool {
	rm, sm := add(r.Min, r.Size), add(s.Min, s.Size)
	return r.Min.X <= sm.X && s.Min.X <= rm.X && r.Min.Y <= sm.Y && s.Min.Y <= rm.Y
}

// contains reports whether p lies inside the box (inclusive).
func (b *BBox) contains(p Point) bool {
	return p.X >= b.MinX && p.X <= b.MaxX && p.Y >= b.MinY && p.Y <= b.MaxY
}
