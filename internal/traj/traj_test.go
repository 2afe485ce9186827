package traj

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geo"
	"repro/internal/network"
)

// lattice builds an n×n unit lattice: horizontal streets "h" and
// vertical streets "v", all intersecting at shared vertices.
func lattice(t *testing.T, n int) *network.Network {
	t.Helper()
	b := network.NewBuilder()
	for i := 0; i < n; i++ {
		pts := make([]geo.Point, n)
		for j := 0; j < n; j++ {
			pts[j] = geo.Pt(float64(j), float64(i))
		}
		b.AddStreet("h", pts)
	}
	for j := 0; j < n; j++ {
		pts := make([]geo.Point, n)
		for i := 0; i < n; i++ {
			pts[i] = geo.Pt(float64(j), float64(i))
		}
		b.AddStreet("v", pts)
	}
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// vertexAt finds the vertex with exact coordinates.
func vertexAt(t *testing.T, net *network.Network, x, y float64) network.VertexID {
	t.Helper()
	for v := 0; v < net.NumVertices(); v++ {
		if net.Vertex(network.VertexID(v)) == geo.Pt(x, y) {
			return network.VertexID(v)
		}
	}
	t.Fatalf("no vertex at (%v,%v)", x, y)
	return 0
}

// hashInterest is a deterministic synthetic interest function.
func hashInterest(sid network.SegmentID) float64 {
	return float64((uint64(sid)*2654435761)%1000) / 997
}

func TestGraphCanonicalAdjacency(t *testing.T) {
	net := lattice(t, 4)
	g := NewGraph(net, 0)
	degreeSum := 0
	for v := 0; v < g.NumVertices(); v++ {
		es := g.Adjacent(network.VertexID(v))
		degreeSum += len(es)
		for i := 1; i < len(es); i++ {
			a, b := es[i-1], es[i]
			if a.To > b.To || (a.To == b.To && a.Seg >= b.Seg) {
				t.Fatalf("vertex %d adjacency not canonical: %+v before %+v", v, a, b)
			}
		}
		// Every edge has a mirror at its target.
		for _, e := range es {
			found := false
			for _, back := range g.Adjacent(e.To) {
				if back.To == network.VertexID(v) && back.Seg == e.Seg {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("edge %d->%d seg %d has no mirror", v, e.To, e.Seg)
			}
		}
	}
	if degreeSum != 2*net.NumSegments() {
		t.Fatalf("degree sum %d, want %d (every segment twice)", degreeSum, 2*net.NumSegments())
	}
}

func TestGraphConnectors(t *testing.T) {
	// Two streets whose endpoints nearly touch but share no vertex.
	b := network.NewBuilder()
	b.AddStreet("a", []geo.Point{geo.Pt(0, 0), geo.Pt(1, 0)})
	b.AddStreet("b", []geo.Point{geo.Pt(1.05, 0), geo.Pt(2, 0)})
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	plain := NewGraph(net, 0)
	if d := plain.Distances(0); !math.IsInf(d[2], 1) {
		t.Fatalf("disconnected streets reachable without connectors: %v", d)
	}
	g := NewGraph(net, 0.1)
	d := g.Distances(0)
	if math.IsInf(d[3], 1) {
		t.Fatal("connector did not join the near-miss endpoints")
	}
	// Connector edges carry no segment id.
	sawConnector := false
	for v := 0; v < g.NumVertices(); v++ {
		for _, e := range g.Adjacent(network.VertexID(v)) {
			if e.Seg == ConnectorSeg {
				sawConnector = true
				if e.Len <= 0 || e.Len > 0.1 {
					t.Fatalf("connector length %v out of (0, snap]", e.Len)
				}
			}
		}
	}
	if !sawConnector {
		t.Fatal("no connector edges built")
	}
}

func TestNearestVertexTieBreak(t *testing.T) {
	b := network.NewBuilder()
	b.AddStreet("s", []geo.Point{geo.Pt(0, 0), geo.Pt(2, 0)})
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// (1, 5) is exactly equidistant from both endpoints: lowest id wins.
	v, ok := NearestVertex(net, geo.Pt(1, 5))
	if !ok || v != 0 {
		t.Fatalf("NearestVertex tie = %d/%v, want vertex 0", v, ok)
	}
}

func TestDistancesLine(t *testing.T) {
	b := network.NewBuilder()
	b.AddStreet("line", []geo.Point{geo.Pt(0, 0), geo.Pt(1, 0), geo.Pt(2, 0)})
	b.AddStreet("island", []geo.Point{geo.Pt(50, 50), geo.Pt(51, 50)})
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	g := NewGraph(net, 0)
	d := g.Distances(0)
	if d[0] != 0 || d[1] != 1 || d[2] != 2 {
		t.Fatalf("line distances = %v", d[:3])
	}
	if !math.IsInf(d[3], 1) || !math.IsInf(d[4], 1) {
		t.Fatalf("island distances = %v, want +Inf", d[3:])
	}
}

func TestRouteQueryValidation(t *testing.T) {
	g := NewGraph(lattice(t, 3), 0)
	ctx := context.Background()
	bad := []RouteQuery{
		{Src: 0, Dst: 1, K: 0, Budget: 5},
		{Src: 0, Dst: 1, K: 1, Budget: 0},
		{Src: 0, Dst: 1, K: 1, Budget: 5, Alpha: -1},
		{Src: 0, Dst: 9999, K: 1, Budget: 5},
		{Src: 0, Dst: 1, K: 1, Budget: math.NaN()},
		{Src: 0, Dst: 1, K: 1, Budget: math.Inf(1)},
		{Src: 0, Dst: 1, K: 1, Budget: 5, Alpha: math.NaN()},
		{Src: 0, Dst: 1, K: 1, Budget: 5, Alpha: math.Inf(1)},
	}
	for i, q := range bad {
		if _, _, err := TopKRoutes(ctx, g, hashInterest, q, SearchOptions{}); err == nil {
			t.Fatalf("case %d: expected validation error for %+v", i, q)
		}
	}
}

func TestTopKRoutesTrivialAndUnreachable(t *testing.T) {
	b := network.NewBuilder()
	b.AddStreet("a", []geo.Point{geo.Pt(0, 0), geo.Pt(1, 0)})
	b.AddStreet("island", []geo.Point{geo.Pt(50, 50), geo.Pt(51, 50)})
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	g := NewGraph(net, 0)
	ctx := context.Background()

	// src == dst: exactly the empty walk.
	rs, _, err := TopKRoutes(ctx, g, hashInterest, RouteQuery{Src: 0, Dst: 0, K: 3, Budget: 10}, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 || rs[0].Length != 0 || len(rs[0].Segments) != 0 || rs[0].Score != 0 {
		t.Fatalf("self route = %+v", rs)
	}

	// Disconnected endpoints: empty non-nil answer, no error.
	rs, _, err = TopKRoutes(ctx, g, hashInterest, RouteQuery{Src: 0, Dst: 2, K: 3, Budget: 1000}, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rs == nil || len(rs) != 0 {
		t.Fatalf("unreachable answer = %#v, want empty non-nil", rs)
	}
}

// Property: every returned route is a vertex-simple src→dst walk over
// real adjacency edges, within budget, with interest and length exactly
// re-derivable by traversal-order accumulation, in canonical order.
func TestTopKRoutesInvariants(t *testing.T) {
	for trial := 0; trial < 12; trial++ {
		rng := rand.New(rand.NewSource(4200 + int64(trial)))
		net := lattice(t, 3+rng.Intn(2))
		g := NewGraph(net, 0)
		interests := make([]float64, net.NumSegments())
		for i := range interests {
			interests[i] = rng.Float64() * 3
		}
		interest := func(sid network.SegmentID) float64 { return interests[sid] }
		src := network.VertexID(rng.Intn(g.NumVertices()))
		dst := network.VertexID(rng.Intn(g.NumVertices()))
		q := RouteQuery{
			Src: src, Dst: dst,
			K:      1 + rng.Intn(4),
			Budget: 2 + rng.Float64()*4,
			Alpha:  []float64{0, 0.5}[rng.Intn(2)],
		}
		rs, st, err := TopKRoutes(context.Background(), g, interest, q, SearchOptions{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if len(rs) > q.K {
			t.Fatalf("trial %d: %d routes for k=%d", trial, len(rs), q.K)
		}
		if st.Completed < len(rs) {
			t.Fatalf("trial %d: stats completed %d < %d returned", trial, st.Completed, len(rs))
		}
		for ri, r := range rs {
			if r.Vertices[0] != src || r.Vertices[len(r.Vertices)-1] != dst {
				t.Fatalf("trial %d route %d: endpoints %v", trial, ri, r.Vertices)
			}
			seen := map[network.VertexID]bool{}
			for _, v := range r.Vertices {
				if seen[v] {
					t.Fatalf("trial %d route %d: vertex %d repeats", trial, ri, v)
				}
				seen[v] = true
			}
			if r.Length > q.Budget {
				t.Fatalf("trial %d route %d: length %v over budget %v", trial, ri, r.Length, q.Budget)
			}
			// Re-walk the route edge by edge in traversal order; the
			// accumulated floats must be bit-identical.
			var length, isum float64
			segIdx := 0
			for i := 0; i+1 < len(r.Vertices); i++ {
				u, v := r.Vertices[i], r.Vertices[i+1]
				var found *Edge
				for _, e := range g.Adjacent(u) {
					if e.To != v {
						continue
					}
					// Prefer the segment the route names at this hop.
					if segIdx < len(r.Segments) && e.Seg == int32(r.Segments[segIdx]) {
						ec := e
						found = &ec
						break
					}
					if e.Seg == ConnectorSeg && found == nil {
						ec := e
						found = &ec
					}
				}
				if found == nil {
					t.Fatalf("trial %d route %d: no edge %d->%d", trial, ri, u, v)
				}
				length += found.Len
				if found.Seg != ConnectorSeg {
					isum += interests[found.Seg]
					segIdx++
				}
			}
			if segIdx != len(r.Segments) {
				t.Fatalf("trial %d route %d: walked %d segments, route lists %d", trial, ri, segIdx, len(r.Segments))
			}
			if math.Float64bits(length) != math.Float64bits(r.Length) {
				t.Fatalf("trial %d route %d: length %v != re-walk %v", trial, ri, r.Length, length)
			}
			if math.Float64bits(isum) != math.Float64bits(r.Interest) {
				t.Fatalf("trial %d route %d: interest %v != re-walk %v", trial, ri, r.Interest, isum)
			}
			wantScore := r.Interest - q.Alpha*r.Length
			if math.Float64bits(wantScore) != math.Float64bits(r.Score) {
				t.Fatalf("trial %d route %d: score %v != %v", trial, ri, r.Score, wantScore)
			}
		}
		// Canonical order.
		for i := 1; i < len(rs); i++ {
			a, b := rs[i-1], rs[i]
			if b.Score > a.Score || (b.Score == a.Score && b.Length < a.Length) {
				t.Fatalf("trial %d: routes out of canonical order at %d", trial, i)
			}
		}
	}
}

func TestTopKRoutesExpansionGuard(t *testing.T) {
	net := lattice(t, 4)
	g := NewGraph(net, 0)
	src := vertexAt(t, net, 0, 0)
	dst := vertexAt(t, net, 3, 3)
	_, _, err := TopKRoutes(context.Background(), g, hashInterest,
		RouteQuery{Src: src, Dst: dst, K: 3, Budget: 12}, SearchOptions{MaxExpansions: 2})
	if !errors.Is(err, ErrSearchBudget) {
		t.Fatalf("err = %v, want ErrSearchBudget", err)
	}
}

func TestTopKRoutesContextCancel(t *testing.T) {
	net := lattice(t, 5)
	g := NewGraph(net, 0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := TopKRoutes(ctx, g, hashInterest,
		RouteQuery{Src: 0, Dst: network.VertexID(g.NumVertices() - 1), K: 2, Budget: 20}, SearchOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// Property: grid matching equals a brute-force full ascending scan with
// a strict-improvement rule, including the in/out-of-radius decision.
func TestMatcherMatchesBruteForce(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		rng := rand.New(rand.NewSource(5100 + int64(trial)))
		net := lattice(t, 3+rng.Intn(3))
		radius := 0.05 + rng.Float64()*0.5
		m := NewMatcher(net, radius)
		for i := 0; i < 300; i++ {
			p := geo.Pt(rng.Float64()*6-1, rng.Float64()*6-1)
			gotSid, gotOK := m.Match(p)

			best, bestD2 := network.SegmentID(0), math.Inf(1)
			for sid := 0; sid < net.NumSegments(); sid++ {
				if d2 := net.Segment(network.SegmentID(sid)).Geom.DistToPointSq(p); d2 < bestD2 {
					best, bestD2 = network.SegmentID(sid), d2
				}
			}
			wantOK := bestD2 <= radius*radius
			if gotOK != wantOK || (wantOK && gotSid != best) {
				t.Fatalf("trial %d point %v: match = (%d,%v), brute = (%d,%v)",
					trial, p, gotSid, gotOK, best, wantOK)
			}
		}
	}
}

// Regression: an adversarially tiny snap radius must not blow up grid
// construction (the cell size is floored at extent/maxMatchCellsPerDim),
// and matching must stay exact — on-segment points snap, anything
// farther than the radius does not.
func TestMatcherTinyRadiusBounded(t *testing.T) {
	net := lattice(t, 4) // extent 3×3
	m := NewMatcher(net, 1e-12)
	if got, ok := m.Match(geo.Pt(0.5, 0)); !ok || net.Segment(got).Geom.DistToPointSq(geo.Pt(0.5, 0)) != 0 {
		t.Fatalf("on-segment point match = (%d,%v), want exact-distance hit", got, ok)
	}
	if _, ok := m.Match(geo.Pt(0.5, 1e-6)); ok {
		t.Fatal("point 1e-6 away matched at radius 1e-12")
	}
	// Extreme and non-finite query points must neither panic nor match.
	for _, p := range []geo.Point{geo.Pt(1e300, -1e300), geo.Pt(math.NaN(), 0), geo.Pt(math.Inf(1), math.Inf(-1))} {
		if _, ok := m.Match(p); ok {
			t.Fatalf("far point %v matched at radius 1e-12", p)
		}
	}
}

// A matcher built with a NaN radius matches nothing instead of
// corrupting its grid arithmetic.
func TestMatcherNaNRadius(t *testing.T) {
	net := lattice(t, 3)
	m := NewMatcher(net, math.NaN())
	if _, ok := m.Match(geo.Pt(0.5, 0)); ok {
		t.Fatal("NaN-radius matcher matched a point")
	}
}

// Regression: with α = 0 the old bound (posTotal − α·length) never fell
// below the completion threshold, so the search degenerated to
// exhaustive enumeration of every budget-feasible simple path. The
// tightened bound — collected + budget-reachable uncollected positive
// interest − α·(length + distToDst) — must actually prune there.
func TestTopKRoutesBoundPrunesAtAlphaZero(t *testing.T) {
	net := lattice(t, 5)
	g := NewGraph(net, 0)
	src := vertexAt(t, net, 0, 0)
	dst := vertexAt(t, net, 4, 4)
	rs, st, err := TopKRoutes(context.Background(), g, hashInterest,
		RouteQuery{Src: src, Dst: dst, K: 2, Budget: 12, Alpha: 0}, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 {
		t.Fatalf("routes = %d, want 2", len(rs))
	}
	if st.PrunedBound == 0 {
		t.Fatalf("no bound prunes at alpha=0: %+v", st)
	}
}

func TestTrajQueryValidation(t *testing.T) {
	net := lattice(t, 3)
	m := NewMatcher(net, 0.2)
	ctx := context.Background()
	tr := [][]geo.Point{{geo.Pt(0, 0)}}
	bad := []TrajQuery{
		{Traces: tr, K: 0, Radius: 0.2},
		{Traces: tr, K: 1, Radius: 0},
		{Traces: nil, K: 1, Radius: 0.2},
		{Traces: tr, K: 1, Radius: math.NaN()},
		{Traces: tr, K: 1, Radius: math.Inf(1)},
	}
	for i, q := range bad {
		if _, _, err := TrajectorySOI(ctx, m, hashInterest, q); err == nil {
			t.Fatalf("case %d: expected validation error", i)
		}
	}
	// Radius mismatch between query and matcher is rejected loudly.
	if _, _, err := TrajectorySOI(ctx, m, hashInterest, TrajQuery{Traces: tr, K: 1, Radius: 0.3}); err == nil {
		t.Fatal("expected radius-mismatch error")
	}
}

func TestTrajectorySOISmall(t *testing.T) {
	// One horizontal and one vertical street; a trace along the
	// horizontal one covers only its segments.
	b := network.NewBuilder()
	b.AddStreet("main", []geo.Point{geo.Pt(0, 0), geo.Pt(1, 0), geo.Pt(2, 0)})
	b.AddStreet("cross", []geo.Point{geo.Pt(1, -1), geo.Pt(1, 1)})
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m := NewMatcher(net, 0.1)
	one := func(network.SegmentID) float64 { return 1 }
	trace := []geo.Point{geo.Pt(0.5, 0.01), geo.Pt(1.5, -0.01)}
	res, st, err := TrajectorySOI(context.Background(), m, one, TrajQuery{
		Traces: [][]geo.Point{trace}, K: 5, Radius: 0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.TracePoints != 2 || st.Matched != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if len(res) != 1 || res[0].Name != "main" {
		t.Fatalf("results = %+v, want only main", res)
	}
	if res[0].Coverage <= 0 || res[0].Coverage > 1 {
		t.Fatalf("coverage = %v", res[0].Coverage)
	}
	// Both segments of main are covered (one point each): coverage 1.
	if math.Abs(res[0].Coverage-1) > 1e-12 {
		t.Fatalf("coverage = %v, want 1 (both segments touched)", res[0].Coverage)
	}
	if res[0].Score != res[0].Coverage*res[0].Interest {
		t.Fatalf("score = %v", res[0].Score)
	}
}

func TestCorridorRankingDropsZeroScores(t *testing.T) {
	net := lattice(t, 3)
	zero := func(network.SegmentID) float64 { return 0 }
	if out := CorridorRanking(net, []network.SegmentID{0}, zero, 5, nil); len(out) != 0 {
		t.Fatalf("zero-interest corridor ranked: %+v", out)
	}
}
