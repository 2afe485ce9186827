// Package geo provides the planar geometry substrate used throughout the
// SOI library: points, line segments, axis-aligned rectangles, and the
// distance computations the paper's definitions rely on (point-to-segment
// distance for POI/photo mass, rectangle-to-segment distance for the
// ε-augmented cell↔segment maps, and min/max point-to-rectangle distances
// for the diversification bounds).
//
// Following the paper, coordinates are planar (longitude/latitude treated
// as Euclidean); all distances are Euclidean in coordinate space.
package geo

import (
	"fmt"
	"math"
)

// Point is a location in the plane.
type Point struct {
	X, Y float64
}

// Pt is a convenience constructor for Point.
func Pt(x, y float64) Point { return Point{X: x, Y: y} }

// R is a convenience constructor for Rect.
func R(minX, minY, maxX, maxY float64) Rect {
	return Rect{MinX: minX, MinY: minY, MaxX: maxX, MaxY: maxY}
}

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// DistSq returns the squared Euclidean distance between p and q.
func (p Point) DistSq(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// String implements fmt.Stringer.
func (p Point) String() string {
	return fmt.Sprintf("(%.6f, %.6f)", p.X, p.Y)
}

// Segment is a directed line segment between two points. The direction is
// irrelevant to every distance computation; it only records how street
// geometry was digitized.
type Segment struct {
	A, B Point
}

// Length returns the Euclidean length of the segment.
func (s Segment) Length() float64 {
	return s.A.Dist(s.B)
}

// Midpoint returns the midpoint of the segment.
func (s Segment) Midpoint() Point {
	return Point{(s.A.X + s.B.X) / 2, (s.A.Y + s.B.Y) / 2}
}

// ClosestPoint returns the point on s closest to p.
func (s Segment) ClosestPoint(p Point) Point {
	dx, dy := s.B.X-s.A.X, s.B.Y-s.A.Y
	lenSq := dx*dx + dy*dy
	if lenSq == 0 {
		// Degenerate segment: a single point.
		return s.A
	}
	t := ((p.X-s.A.X)*dx + (p.Y-s.A.Y)*dy) / lenSq
	switch {
	case t <= 0:
		return s.A
	case t >= 1:
		return s.B
	}
	return Point{s.A.X + t*dx, s.A.Y + t*dy}
}

// DistToPoint returns the minimum Euclidean distance between p and any
// point on the segment. This realizes the paper's dist(p, ℓ).
func (s Segment) DistToPoint(p Point) float64 {
	return p.Dist(s.ClosestPoint(p))
}

// DistToPointSq returns the squared minimum distance between p and s.
func (s Segment) DistToPointSq(p Point) float64 {
	return p.DistSq(s.ClosestPoint(p))
}

// AccumWeightsWithin streams the points (xs[i], ys[i]) through the
// point-to-segment distance test and returns the sum of ws[i] over the
// points within distance √epsSq of s, accumulated in index order. The
// per-point arithmetic is identical to DistToPointSq (the segment-side
// invariants are merely hoisted out of the loop), so the result is
// bit-for-bit the sum a DistToPointSq loop would produce; hot paths use
// it to avoid per-point call overhead and slice indexing checks.
func (s Segment) AccumWeightsWithin(xs, ys, ws []float64, epsSq float64) float64 {
	dx, dy := s.B.X-s.A.X, s.B.Y-s.A.Y
	lenSq := dx*dx + dy*dy
	ax, ay := s.A.X, s.A.Y
	bx, by := s.B.X, s.B.Y
	var sum float64
	if lenSq == 0 {
		// Degenerate segment: distance to the single point A.
		for i, px := range xs {
			ddx, ddy := px-ax, ys[i]-ay
			if ddx*ddx+ddy*ddy <= epsSq {
				sum += ws[i]
			}
		}
		return sum
	}
	for i, px := range xs {
		py := ys[i]
		t := ((px-ax)*dx + (py-ay)*dy) / lenSq
		var cx, cy float64
		switch {
		case t <= 0:
			cx, cy = ax, ay
		case t >= 1:
			cx, cy = bx, by
		default:
			cx, cy = ax+t*dx, ay+t*dy
		}
		ddx, ddy := px-cx, py-cy
		if ddx*ddx+ddy*ddy <= epsSq {
			sum += ws[i]
		}
	}
	return sum
}

// Bounds returns the minimum bounding rectangle of the segment.
func (s Segment) Bounds() Rect {
	return Rect{
		MinX: math.Min(s.A.X, s.B.X),
		MinY: math.Min(s.A.Y, s.B.Y),
		MaxX: math.Max(s.A.X, s.B.X),
		MaxY: math.Max(s.A.Y, s.B.Y),
	}
}

// orient returns the sign of the cross product (b-a)×(c-a): positive for a
// counter-clockwise turn, negative for clockwise, zero for collinear.
func orient(a, b, c Point) float64 {
	return (b.X-a.X)*(c.Y-a.Y) - (b.Y-a.Y)*(c.X-a.X)
}

// onSegment reports whether collinear point c lies within the bounding box
// of segment ab.
func onSegment(a, b, c Point) bool {
	return math.Min(a.X, b.X) <= c.X && c.X <= math.Max(a.X, b.X) &&
		math.Min(a.Y, b.Y) <= c.Y && c.Y <= math.Max(a.Y, b.Y)
}

// Intersects reports whether the two segments share at least one point.
func (s Segment) Intersects(t Segment) bool {
	d1 := orient(t.A, t.B, s.A)
	d2 := orient(t.A, t.B, s.B)
	d3 := orient(s.A, s.B, t.A)
	d4 := orient(s.A, s.B, t.B)
	if ((d1 > 0 && d2 < 0) || (d1 < 0 && d2 > 0)) &&
		((d3 > 0 && d4 < 0) || (d3 < 0 && d4 > 0)) {
		return true
	}
	if d1 == 0 && onSegment(t.A, t.B, s.A) {
		return true
	}
	if d2 == 0 && onSegment(t.A, t.B, s.B) {
		return true
	}
	if d3 == 0 && onSegment(s.A, s.B, t.A) {
		return true
	}
	if d4 == 0 && onSegment(s.A, s.B, t.B) {
		return true
	}
	return false
}

// DistToSegment returns the minimum distance between any point of s and
// any point of t; zero when the segments intersect.
func (s Segment) DistToSegment(t Segment) float64 {
	if s.Intersects(t) {
		return 0
	}
	d := s.DistToPoint(t.A)
	if v := s.DistToPoint(t.B); v < d {
		d = v
	}
	if v := t.DistToPoint(s.A); v < d {
		d = v
	}
	if v := t.DistToPoint(s.B); v < d {
		d = v
	}
	return d
}

// Rect is an axis-aligned rectangle, closed on all sides.
type Rect struct {
	MinX, MinY, MaxX, MaxY float64
}

// NewRect returns the rectangle spanning the two corner points in any order.
func NewRect(a, b Point) Rect {
	return Rect{
		MinX: math.Min(a.X, b.X),
		MinY: math.Min(a.Y, b.Y),
		MaxX: math.Max(a.X, b.X),
		MaxY: math.Max(a.Y, b.Y),
	}
}

// IsValid reports whether the rectangle is non-degenerate (Min ≤ Max on
// both axes). A zero-area rectangle (a point) is valid.
func (r Rect) IsValid() bool {
	return r.MinX <= r.MaxX && r.MinY <= r.MaxY
}

// Width returns the horizontal extent of the rectangle.
func (r Rect) Width() float64 { return r.MaxX - r.MinX }

// Height returns the vertical extent of the rectangle.
func (r Rect) Height() float64 { return r.MaxY - r.MinY }

// Diagonal returns the length of the rectangle's diagonal. The paper uses
// the diagonal of the ε-buffered street MBR as the normalizer maxD(s).
func (r Rect) Diagonal() float64 {
	return math.Hypot(r.Width(), r.Height())
}

// Center returns the center point of the rectangle.
func (r Rect) Center() Point {
	return Point{(r.MinX + r.MaxX) / 2, (r.MinY + r.MaxY) / 2}
}

// Contains reports whether p lies inside or on the boundary of r.
func (r Rect) Contains(p Point) bool {
	return r.MinX <= p.X && p.X <= r.MaxX && r.MinY <= p.Y && p.Y <= r.MaxY
}

// Expand returns the rectangle grown by d on every side. Negative d
// shrinks the rectangle and may make it invalid.
func (r Rect) Expand(d float64) Rect {
	return Rect{r.MinX - d, r.MinY - d, r.MaxX + d, r.MaxY + d}
}

// Union returns the smallest rectangle covering both r and o.
func (r Rect) Union(o Rect) Rect {
	return Rect{
		MinX: math.Min(r.MinX, o.MinX),
		MinY: math.Min(r.MinY, o.MinY),
		MaxX: math.Max(r.MaxX, o.MaxX),
		MaxY: math.Max(r.MaxY, o.MaxY),
	}
}

// MinDistToPoint returns the minimum distance from p to any point of r;
// zero when p is inside r. This is mindist(r, c) in the paper's
// cell-to-photo spatial diversity bound (Eq. 15).
func (r Rect) MinDistToPoint(p Point) float64 {
	dx := math.Max(0, math.Max(r.MinX-p.X, p.X-r.MaxX))
	dy := math.Max(0, math.Max(r.MinY-p.Y, p.Y-r.MaxY))
	return math.Hypot(dx, dy)
}

// MaxDistToPoint returns the maximum distance from p to any point of r,
// attained at one of the four corners. This is maxdist(r, c) in the
// paper's cell-to-photo spatial diversity bound (Eq. 16).
func (r Rect) MaxDistToPoint(p Point) float64 {
	dx := math.Max(math.Abs(p.X-r.MinX), math.Abs(p.X-r.MaxX))
	dy := math.Max(math.Abs(p.Y-r.MinY), math.Abs(p.Y-r.MaxY))
	return math.Hypot(dx, dy)
}

// Edges returns the four boundary segments of the rectangle.
func (r Rect) Edges() [4]Segment {
	bl := Point{r.MinX, r.MinY}
	br := Point{r.MaxX, r.MinY}
	tr := Point{r.MaxX, r.MaxY}
	tl := Point{r.MinX, r.MaxY}
	return [4]Segment{{bl, br}, {br, tr}, {tr, tl}, {tl, bl}}
}

// DistToSegment returns the minimum distance between any point of r and
// any point of s; zero when s intersects or lies inside r. It realizes
// dist(c, ℓ) for building the ε-augmented cell↔segment maps.
func (r Rect) DistToSegment(s Segment) float64 {
	if r.Contains(s.A) || r.Contains(s.B) {
		return 0
	}
	d := math.Inf(1)
	for _, e := range r.Edges() {
		if s.Intersects(e) {
			return 0
		}
		if v := s.DistToSegment(e); v < d {
			d = v
		}
	}
	return d
}

// String implements fmt.Stringer.
func (r Rect) String() string {
	return fmt.Sprintf("[%.6f,%.6f]x[%.6f,%.6f]", r.MinX, r.MaxX, r.MinY, r.MaxY)
}
