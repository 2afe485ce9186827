package geo

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*(1+math.Abs(a)+math.Abs(b))
}

func TestPointDist(t *testing.T) {
	tests := []struct {
		name string
		p, q Point
		want float64
	}{
		{"same point", Point{1, 2}, Point{1, 2}, 0},
		{"unit x", Point{0, 0}, Point{1, 0}, 1},
		{"unit y", Point{0, 0}, Point{0, 1}, 1},
		{"345 triangle", Point{0, 0}, Point{3, 4}, 5},
		{"negative coords", Point{-1, -1}, Point{2, 3}, 5},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.p.Dist(tc.q); !almostEq(got, tc.want) {
				t.Errorf("Dist(%v, %v) = %v, want %v", tc.p, tc.q, got, tc.want)
			}
			if got := tc.p.DistSq(tc.q); !almostEq(got, tc.want*tc.want) {
				t.Errorf("DistSq(%v, %v) = %v, want %v", tc.p, tc.q, got, tc.want*tc.want)
			}
		})
	}
}

func TestPointDistSymmetry(t *testing.T) {
	f := func(ax, ay, bx, by int16) bool {
		p := Point{float64(ax) / 64, float64(ay) / 64}
		q := Point{float64(bx) / 64, float64(by) / 64}
		return almostEq(p.Dist(q), q.Dist(p))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPointDistTriangleInequality(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		a := Point{rng.NormFloat64(), rng.NormFloat64()}
		b := Point{rng.NormFloat64(), rng.NormFloat64()}
		c := Point{rng.NormFloat64(), rng.NormFloat64()}
		if a.Dist(c) > a.Dist(b)+b.Dist(c)+1e-9 {
			t.Fatalf("triangle inequality violated: a=%v b=%v c=%v", a, b, c)
		}
	}
}

func TestSegmentLength(t *testing.T) {
	s := Segment{Point{0, 0}, Point{3, 4}}
	if got := s.Length(); !almostEq(got, 5) {
		t.Errorf("Length = %v, want 5", got)
	}
	deg := Segment{Point{7, 7}, Point{7, 7}}
	if got := deg.Length(); got != 0 {
		t.Errorf("degenerate Length = %v, want 0", got)
	}
}

func TestSegmentMidpoint(t *testing.T) {
	s := Segment{Point{0, 0}, Point{2, 4}}
	if got := s.Midpoint(); got != (Point{1, 2}) {
		t.Errorf("Midpoint = %v, want (1,2)", got)
	}
}

func TestSegmentClosestPoint(t *testing.T) {
	s := Segment{Point{0, 0}, Point{10, 0}}
	tests := []struct {
		name string
		p    Point
		want Point
	}{
		{"projects inside", Point{5, 3}, Point{5, 0}},
		{"clamps to A", Point{-2, 1}, Point{0, 0}},
		{"clamps to B", Point{12, -1}, Point{10, 0}},
		{"on the segment", Point{4, 0}, Point{4, 0}},
		{"at endpoint", Point{0, 0}, Point{0, 0}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got := s.ClosestPoint(tc.p)
			if !almostEq(got.X, tc.want.X) || !almostEq(got.Y, tc.want.Y) {
				t.Errorf("ClosestPoint(%v) = %v, want %v", tc.p, got, tc.want)
			}
		})
	}
}

func TestSegmentDistToPoint(t *testing.T) {
	s := Segment{Point{0, 0}, Point{10, 0}}
	tests := []struct {
		name string
		p    Point
		want float64
	}{
		{"above middle", Point{5, 3}, 3},
		{"beyond A", Point{-3, 4}, 5},
		{"beyond B", Point{13, -4}, 5},
		{"on segment", Point{7, 0}, 0},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := s.DistToPoint(tc.p); !almostEq(got, tc.want) {
				t.Errorf("DistToPoint(%v) = %v, want %v", tc.p, got, tc.want)
			}
			if got := s.DistToPointSq(tc.p); !almostEq(got, tc.want*tc.want) {
				t.Errorf("DistToPointSq(%v) = %v, want %v", tc.p, got, tc.want*tc.want)
			}
		})
	}
}

func TestSegmentDistToPointDegenerate(t *testing.T) {
	s := Segment{Point{2, 2}, Point{2, 2}}
	if got := s.DistToPoint(Point{5, 6}); !almostEq(got, 5) {
		t.Errorf("degenerate DistToPoint = %v, want 5", got)
	}
}

// Property: the point-to-segment distance is never larger than the
// distance to either endpoint, and never negative.
func TestSegmentDistToPointBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 2000; i++ {
		s := Segment{
			Point{rng.NormFloat64(), rng.NormFloat64()},
			Point{rng.NormFloat64(), rng.NormFloat64()},
		}
		p := Point{rng.NormFloat64(), rng.NormFloat64()}
		d := s.DistToPoint(p)
		if d < 0 {
			t.Fatalf("negative distance %v", d)
		}
		if d > p.Dist(s.A)+1e-9 || d > p.Dist(s.B)+1e-9 {
			t.Fatalf("distance %v exceeds endpoint distances %v/%v", d, p.Dist(s.A), p.Dist(s.B))
		}
	}
}

// Property: the closest point always lies on the segment (within epsilon),
// verified by checking that |A-c| + |c-B| ≈ |A-B|.
func TestSegmentClosestPointOnSegment(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		s := Segment{
			Point{rng.NormFloat64(), rng.NormFloat64()},
			Point{rng.NormFloat64(), rng.NormFloat64()},
		}
		p := Point{rng.NormFloat64() * 3, rng.NormFloat64() * 3}
		c := s.ClosestPoint(p)
		if sum := s.A.Dist(c) + c.Dist(s.B); !almostEq(sum, s.Length()) {
			t.Fatalf("closest point %v off segment %v..%v (sum %v, len %v)",
				c, s.A, s.B, sum, s.Length())
		}
	}
}

func TestSegmentIntersects(t *testing.T) {
	tests := []struct {
		name string
		s, u Segment
		want bool
	}{
		{"crossing X", Segment{Point{0, 0}, Point{2, 2}}, Segment{Point{0, 2}, Point{2, 0}}, true},
		{"parallel apart", Segment{Point{0, 0}, Point{2, 0}}, Segment{Point{0, 1}, Point{2, 1}}, false},
		{"touching at endpoint", Segment{Point{0, 0}, Point{1, 1}}, Segment{Point{1, 1}, Point{2, 0}}, true},
		{"collinear overlapping", Segment{Point{0, 0}, Point{3, 0}}, Segment{Point{2, 0}, Point{5, 0}}, true},
		{"collinear disjoint", Segment{Point{0, 0}, Point{1, 0}}, Segment{Point{2, 0}, Point{3, 0}}, false},
		{"T junction", Segment{Point{0, 0}, Point{4, 0}}, Segment{Point{2, -1}, Point{2, 0}}, true},
		{"near miss", Segment{Point{0, 0}, Point{4, 0}}, Segment{Point{2, 0.001}, Point{2, 1}}, false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.s.Intersects(tc.u); got != tc.want {
				t.Errorf("Intersects = %v, want %v", got, tc.want)
			}
			if got := tc.u.Intersects(tc.s); got != tc.want {
				t.Errorf("Intersects (swapped) = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestSegmentDistToSegment(t *testing.T) {
	tests := []struct {
		name string
		s, u Segment
		want float64
	}{
		{"intersecting", Segment{Point{0, 0}, Point{2, 2}}, Segment{Point{0, 2}, Point{2, 0}}, 0},
		{"parallel", Segment{Point{0, 0}, Point{2, 0}}, Segment{Point{0, 3}, Point{2, 3}}, 3},
		{"endpoint to interior", Segment{Point{0, 0}, Point{10, 0}}, Segment{Point{5, 2}, Point{5, 9}}, 2},
		{"corner to corner", Segment{Point{0, 0}, Point{1, 0}}, Segment{Point{4, 4}, Point{9, 9}}, 5},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.s.DistToSegment(tc.u); !almostEq(got, tc.want) {
				t.Errorf("DistToSegment = %v, want %v", got, tc.want)
			}
			if got := tc.u.DistToSegment(tc.s); !almostEq(got, tc.want) {
				t.Errorf("DistToSegment (swapped) = %v, want %v", got, tc.want)
			}
		})
	}
}

// Property: segment-segment distance agrees with a dense point sampling.
func TestSegmentDistToSegmentSampling(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 300; i++ {
		s := Segment{
			Point{rng.Float64() * 10, rng.Float64() * 10},
			Point{rng.Float64() * 10, rng.Float64() * 10},
		}
		u := Segment{
			Point{rng.Float64() * 10, rng.Float64() * 10},
			Point{rng.Float64() * 10, rng.Float64() * 10},
		}
		got := s.DistToSegment(u)
		// Sample points along u and take the min distance to s.
		best := math.Inf(1)
		const n = 200
		for j := 0; j <= n; j++ {
			tfrac := float64(j) / n
			p := Point{u.A.X + tfrac*(u.B.X-u.A.X), u.A.Y + tfrac*(u.B.Y-u.A.Y)}
			if d := s.DistToPoint(p); d < best {
				best = d
			}
		}
		// The true distance is ≤ every sampled distance, and sampling
		// can only overshoot by the sampling step.
		if got > best+1e-9 {
			t.Fatalf("DistToSegment=%v exceeds sampled min %v for s=%v u=%v", got, best, s, u)
		}
		if best-got > u.Length()/n+1e-9 {
			t.Fatalf("DistToSegment=%v far below sampled min %v for s=%v u=%v", got, best, s, u)
		}
	}
}

func TestRectBasics(t *testing.T) {
	r := NewRect(Point{3, 1}, Point{0, 5})
	if r != (Rect{0, 1, 3, 5}) {
		t.Fatalf("NewRect = %v", r)
	}
	if !r.IsValid() {
		t.Error("expected valid rect")
	}
	if got := r.Width(); !almostEq(got, 3) {
		t.Errorf("Width = %v", got)
	}
	if got := r.Height(); !almostEq(got, 4) {
		t.Errorf("Height = %v", got)
	}
	if got := r.Diagonal(); !almostEq(got, 5) {
		t.Errorf("Diagonal = %v", got)
	}
	if got := r.Center(); got != (Point{1.5, 3}) {
		t.Errorf("Center = %v", got)
	}
	if bad := (Rect{2, 0, 1, 1}); bad.IsValid() {
		t.Error("expected invalid rect")
	}
}

func TestRectContains(t *testing.T) {
	r := Rect{0, 0, 2, 2}
	for _, p := range []Point{{0, 0}, {2, 2}, {1, 1}, {0, 2}} {
		if !r.Contains(p) {
			t.Errorf("expected %v inside %v", p, r)
		}
	}
	for _, p := range []Point{{-0.001, 0}, {2.001, 1}, {1, 3}} {
		if r.Contains(p) {
			t.Errorf("expected %v outside %v", p, r)
		}
	}
}

func TestRectExpandUnionIntersects(t *testing.T) {
	r := Rect{0, 0, 1, 1}
	e := r.Expand(0.5)
	if e != (Rect{-0.5, -0.5, 1.5, 1.5}) {
		t.Errorf("Expand = %v", e)
	}
	u := r.Union(Rect{2, 2, 3, 3})
	if u != (Rect{0, 0, 3, 3}) {
		t.Errorf("Union = %v", u)
	}
}

func TestRectMinMaxDistToPoint(t *testing.T) {
	r := Rect{0, 0, 2, 2}
	tests := []struct {
		name     string
		p        Point
		min, max float64
	}{
		{"inside", Point{1, 1}, 0, math.Sqrt2},
		{"right of", Point{5, 1}, 3, math.Hypot(5, 1)},
		{"diag corner", Point{5, 6}, 5, math.Hypot(5, 6)},
		{"on boundary", Point{2, 1}, 0, math.Hypot(2, 1)},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := r.MinDistToPoint(tc.p); !almostEq(got, tc.min) {
				t.Errorf("MinDist = %v, want %v", got, tc.min)
			}
			if got := r.MaxDistToPoint(tc.p); !almostEq(got, tc.max) {
				t.Errorf("MaxDist = %v, want %v", got, tc.max)
			}
		})
	}
}

// Property: for any point q inside rect r and probe p,
// MinDist(p) ≤ dist(p,q) ≤ MaxDist(p).
func TestRectDistSandwich(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 2000; i++ {
		r := NewRect(
			Point{rng.NormFloat64(), rng.NormFloat64()},
			Point{rng.NormFloat64(), rng.NormFloat64()},
		)
		q := Point{
			r.MinX + rng.Float64()*r.Width(),
			r.MinY + rng.Float64()*r.Height(),
		}
		p := Point{rng.NormFloat64() * 3, rng.NormFloat64() * 3}
		d := p.Dist(q)
		if lo := r.MinDistToPoint(p); d < lo-1e-9 {
			t.Fatalf("MinDist %v > actual %v (r=%v p=%v q=%v)", lo, d, r, p, q)
		}
		if hi := r.MaxDistToPoint(p); d > hi+1e-9 {
			t.Fatalf("MaxDist %v < actual %v (r=%v p=%v q=%v)", hi, d, r, p, q)
		}
	}
}

func TestRectDistToSegment(t *testing.T) {
	r := Rect{0, 0, 2, 2}
	tests := []struct {
		name string
		s    Segment
		want float64
	}{
		{"inside", Segment{Point{0.5, 0.5}, Point{1.5, 1.5}}, 0},
		{"crossing", Segment{Point{-1, 1}, Point{3, 1}}, 0},
		{"touching boundary", Segment{Point{2, 1}, Point{4, 1}}, 0},
		{"right of", Segment{Point{3, 0}, Point{3, 2}}, 1},
		{"diagonal away", Segment{Point{5, 6}, Point{9, 9}}, 5},
		{"one endpoint inside", Segment{Point{1, 1}, Point{5, 5}}, 0},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := r.DistToSegment(tc.s); !almostEq(got, tc.want) {
				t.Errorf("DistToSegment = %v, want %v", got, tc.want)
			}
		})
	}
}

// Property: rect-to-segment distance lower-bounds point-to-segment
// distance for every point inside the rect (the coverage property the
// ε-augmented cell↔segment maps depend on).
func TestRectDistToSegmentCoverage(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 1000; i++ {
		r := NewRect(
			Point{rng.Float64() * 10, rng.Float64() * 10},
			Point{rng.Float64() * 10, rng.Float64() * 10},
		)
		s := Segment{
			Point{rng.Float64() * 10, rng.Float64() * 10},
			Point{rng.Float64() * 10, rng.Float64() * 10},
		}
		lo := r.DistToSegment(s)
		for j := 0; j < 20; j++ {
			q := Point{
				r.MinX + rng.Float64()*r.Width(),
				r.MinY + rng.Float64()*r.Height(),
			}
			if d := s.DistToPoint(q); d < lo-1e-9 {
				t.Fatalf("point %v in rect %v at dist %v < rect dist %v (s=%v)", q, r, d, lo, s)
			}
		}
	}
}

func TestRectEdges(t *testing.T) {
	r := Rect{0, 0, 1, 2}
	var perim float64
	for _, e := range r.Edges() {
		perim += e.Length()
	}
	if !almostEq(perim, 6) {
		t.Errorf("perimeter = %v, want 6", perim)
	}
}

func TestSegmentBounds(t *testing.T) {
	s := Segment{Point{3, -1}, Point{-2, 4}}
	if got := s.Bounds(); got != (Rect{-2, -1, 3, 4}) {
		t.Errorf("Bounds = %v", got)
	}
}

func TestStringers(t *testing.T) {
	if s := (Point{1, 2}).String(); s == "" {
		t.Error("empty Point string")
	}
	if s := (Rect{0, 0, 1, 1}).String(); s == "" {
		t.Error("empty Rect string")
	}
}
