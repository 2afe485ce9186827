package traj_test

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/datagen"
	"repro/internal/geo"
	"repro/internal/network"
	"repro/internal/oracle"
	"repro/internal/traj"
)

// buildNet builds a network from street polylines named s0, s1, ….
func buildNet(t *testing.T, streets ...[]geo.Point) *network.Network {
	t.Helper()
	b := network.NewBuilder()
	for i, pts := range streets {
		b.AddStreet(fmt.Sprintf("s%d", i), pts)
	}
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// matcherProbes returns the points where the grid's edges are: around the
// network bounds at a fraction of a cell and at many cells out, exactly on
// cell boundaries (x = k·cell, y = k'·cell, across the grid and on the
// segments' own lines), on every vertex and segment midpoint, at the
// radius from each vertex and just beyond it, and non-finite coordinates.
func matcherProbes(net *network.Network, m *traj.Matcher) []geo.Point {
	nb, c, r := net.Bounds(), m.Cell(), m.Radius()
	midX, midY := (nb.MinX+nb.MaxX)/2, (nb.MinY+nb.MaxY)/2
	var pts []geo.Point
	for _, f := range []float64{0.01, 0.5, 0.99, 1, 1.5, 7.5, 100} {
		d := f * c
		pts = append(pts,
			geo.Pt(nb.MinX-d, midY), geo.Pt(nb.MaxX+d, midY),
			geo.Pt(midX, nb.MinY-d), geo.Pt(midX, nb.MaxY+d),
			geo.Pt(nb.MinX-d, nb.MinY-d), geo.Pt(nb.MaxX+d, nb.MaxY+d),
			geo.Pt(nb.MinX-d, nb.MaxY+d), geo.Pt(nb.MaxX+d, nb.MinY-d))
	}
	// Cell boundaries: about 24 columns and rows spread over the grid and
	// two cells past it on each side.
	kx0, kx1 := math.Floor(nb.MinX/c)-2, math.Floor(nb.MaxX/c)+3
	ky0, ky1 := math.Floor(nb.MinY/c)-2, math.Floor(nb.MaxY/c)+3
	stepX, stepY := math.Max(1, math.Floor((kx1-kx0)/24)), math.Max(1, math.Floor((ky1-ky0)/24))
	var xs, ys []float64
	for k := kx0; k <= kx1; k += stepX {
		xs = append(xs, k*c)
	}
	for k := ky0; k <= ky1; k += stepY {
		ys = append(ys, k*c)
	}
	for _, seg := range net.Segments() {
		xs = append(xs, seg.Geom.A.X)
		ys = append(ys, seg.Geom.A.Y)
		mid := seg.Geom.Midpoint()
		pts = append(pts, seg.Geom.A, seg.Geom.B, mid)
		for _, f := range []float64{0.5, 1, 1 + 1e-9, 1.5} {
			pts = append(pts, geo.Pt(seg.Geom.A.X+f*r, seg.Geom.A.Y), geo.Pt(mid.X, mid.Y-f*r))
		}
	}
	for _, x := range xs {
		for _, y := range ys {
			pts = append(pts, geo.Pt(x, y))
		}
	}
	return append(pts,
		geo.Pt(1e300, -1e300), geo.Pt(-1e300, 1e300),
		geo.Pt(math.NaN(), midY), geo.Pt(midX, math.Inf(1)), geo.Pt(math.Inf(-1), math.Inf(1)))
}

// TestMatcherEdgesMatchFullScan holds the grid matcher to the oracle's
// full scan where a grid can go wrong: points just outside the bounds
// and far outside them, points exactly on cell boundaries, the radius
// floored at extent/1024, a radius larger than the network (a one-cell
// grid), a one-segment network and networks of zero-length segments.
func TestMatcherEdgesMatchFullScan(t *testing.T) {
	for _, c := range []struct {
		name string
		net  *network.Network
	}{
		{"mixed", buildNet(t,
			[]geo.Point{geo.Pt(-1.3, -0.7), geo.Pt(0.4, -0.7), geo.Pt(2.2, 0.9)},
			[]geo.Point{geo.Pt(0.1, -1.1), geo.Pt(0.1, 1.7)},
			[]geo.Point{geo.Pt(-0.9, 1.2), geo.Pt(1.9, -0.4)},
			[]geo.Point{geo.Pt(1.5, 1.5), geo.Pt(1.5, 1.5000001)})},
		{"one segment", buildNet(t, []geo.Point{geo.Pt(0.25, 0.5), geo.Pt(1.75, 0.5)})},
		{"degenerate", buildNet(t,
			[]geo.Point{geo.Pt(0.5, 0.5), geo.Pt(0.5, 0.5)},
			[]geo.Point{geo.Pt(1.5, 0.25), geo.Pt(1.5, 0.25)},
			[]geo.Point{geo.Pt(0.75, 1.25), geo.Pt(0.75, 1.25), geo.Pt(0.75, 1.25)})},
		{"one point", buildNet(t,
			[]geo.Point{geo.Pt(0.5, 0.5), geo.Pt(0.5, 0.5)},
			[]geo.Point{geo.Pt(0.5, 0.5), geo.Pt(0.5, 0.5)})},
	} {
		nb := c.net.Bounds()
		extent := math.Max(nb.MaxX-nb.MinX, nb.MaxY-nb.MinY)
		for _, r := range []struct {
			name   string
			radius float64
		}{
			{"typical", math.Max(extent/20, 0.01)},
			{"floored", 1e-12},
			{"beyond extent", 10 * math.Max(extent, 0.1)},
		} {
			m := traj.NewMatcher(c.net, r.radius)
			if r.name == "floored" && extent > 0 && m.Cell() != extent/1024 {
				t.Fatalf("%s/%s: cell %v, want the floor extent/1024 = %v", c.name, r.name, m.Cell(), extent/1024)
			}
			if r.name == "beyond extent" && nb.MinX >= 0 && nb.MinY >= 0 && m.GridCells() != 1 {
				t.Fatalf("%s/%s: %d grid cells, want 1", c.name, r.name, m.GridCells())
			}
			for _, p := range matcherProbes(c.net, m) {
				gs, gok := m.Match(p)
				ws, wok := oracle.MatchPoint(c.net, p, r.radius)
				if gok != wok || gs != ws {
					t.Fatalf("%s/%s (cell %v): Match(%v) = (%d,%v), full scan (%d,%v)",
						c.name, r.name, m.Cell(), p, gs, gok, ws, wok)
				}
			}
		}
	}
}

// TestMatcherNaNBoundsStaysSmall: one NaN coordinate makes the network's
// bounds NaN, so the extent/1024 floor cannot apply, and NaN coordinates
// land in cell 0 however far the rest of the network lies. The grid
// coarsens its cell instead of spanning the gap, and still answers as
// the full scan does.
func TestMatcherNaNBoundsStaysSmall(t *testing.T) {
	net := buildNet(t,
		[]geo.Point{geo.Pt(0, 0), geo.Pt(0.001, 0)},
		[]geo.Point{geo.Pt(1000, 1000), geo.Pt(1000, 1000.001)},
		[]geo.Point{geo.Pt(math.NaN(), 5), geo.Pt(2, 5)})
	for _, radius := range []float64{0.01, 1e-12} {
		m := traj.NewMatcher(net, radius)
		if cells := m.GridCells(); cells > 2048*2048 {
			t.Fatalf("radius %g: %d grid cells", radius, cells)
		}
		for _, p := range matcherProbes(net, m) {
			gs, gok := m.Match(p)
			ws, wok := oracle.MatchPoint(net, p, radius)
			if gok != wok || gs != ws {
				t.Fatalf("radius %g (cell %v): Match(%v) = (%d,%v), full scan (%d,%v)", radius, m.Cell(), p, gs, gok, ws, wok)
			}
		}
	}
}

// liveHeap returns the bytes of heap objects still reachable after a
// collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestMatcherLiveBytes bounds what a matcher keeps alive on Berlin 0.25:
// 4 B per cell of its grid block plus 4 B per bucket entry. The floored
// radius gives the largest block the floor allows (about 1,025² cells);
// the map-keyed grid this layout replaced held 12.1 MB there.
func TestMatcherLiveBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("generates Berlin 0.25")
	}
	ds, err := datagen.Generate(datagen.Scale(datagen.Berlin(), 0.25))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		radius float64
		limit  uint64
	}{
		{"default radius", traj.DefaultSnap(ds.Network), 512 << 10},
		{"floored radius", 1e-12, 6 << 20},
	} {
		before := liveHeap()
		m := traj.NewMatcher(ds.Network, c.radius)
		live := liveHeap() - before
		runtime.KeepAlive(m)
		t.Logf("%s (cell %.3g, %d cells): %d live bytes", c.name, m.Cell(), m.GridCells(), live)
		if live > c.limit {
			t.Errorf("%s: matcher holds %d live bytes, want ≤ %d", c.name, live, c.limit)
		}
	}
}

// bytesPerRun reports the bytes f allocates per call, measured the way
// testing.AllocsPerRun counts objects.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestTrajectorySOIBytesFollowTheTrace pins a trajectory query's
// allocation to its trace: the same trace over a 5×5 and a 60×60 unit
// lattice (40 and 7,080 segments) allocates the same bytes, and fewer
// than one per segment of the larger network. A per-query array indexed
// by segment or street id fails both.
func TestTrajectorySOIBytesFollowTheTrace(t *testing.T) {
	if traj.RaceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are not meaningful under -race")
	}
	lattice := func(n int) *network.Network {
		var streets [][]geo.Point
		for i := 0; i < n; i++ {
			h, v := make([]geo.Point, n), make([]geo.Point, n)
			for j := 0; j < n; j++ {
				h[j], v[j] = geo.Pt(float64(j), float64(i)), geo.Pt(float64(i), float64(j))
			}
			streets = append(streets, h, v)
		}
		return buildNet(t, streets...)
	}
	trace := [][]geo.Point{{geo.Pt(0.5, 0.02), geo.Pt(1.5, -0.02), geo.Pt(2.02, 0.5), geo.Pt(2.5, 1.01), geo.Pt(0.98, 3.5)}}
	interest := func(sid network.SegmentID) float64 { return float64(sid%7) + 1 }
	perQuery := func(net *network.Network) float64 {
		m := traj.NewMatcher(net, 0.1)
		q := traj.TrajQuery{Traces: trace, K: 3, Radius: 0.1}
		return bytesPerRun(200, func() {
			rs, st, err := traj.TrajectorySOI(context.Background(), m, interest, q)
			if err != nil || len(rs) != 3 || st.CoveredSegments != 5 {
				t.Fatalf("results %d, stats %+v, err %v: want 3 streets over 5 segments", len(rs), st, err)
			}
		})
	}
	small, large := lattice(5), lattice(60)
	sb, lb := perQuery(small), perQuery(large)
	t.Logf("bytes per query: %.0f on %d segments, %.0f on %d segments", sb, small.NumSegments(), lb, large.NumSegments())
	if lb > sb+64 || lb >= float64(large.NumSegments()) {
		t.Fatalf("bytes per query: %.0f on %d segments against %.0f on %d: the query allocates by network size",
			lb, large.NumSegments(), sb, small.NumSegments())
	}
}
