package traj

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/network"
)

// Tests for what the budget-bounded search added around the search
// itself: cancellation inside the prologue, the pooled scratch, the
// allocation pins, the vertex grid and the sort-free matcher. The
// route-for-route equivalence with the unbounded search lives in
// reference_test.go.

// scatter builds a network of random short streets, so distances are
// arbitrary floats and the vertex grid has crowded and empty cells.
func scatter(t testing.TB, seed int64, streets int) *network.Network {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := network.NewBuilder()
	for i := 0; i < streets; i++ {
		x, y := rng.Float64()*10, rng.Float64()*10
		pts := []geo.Point{geo.Pt(x, y)}
		for j := 0; j < 1+rng.Intn(3); j++ {
			x, y = x+rng.Float64()-0.5, y+rng.Float64()-0.5
			pts = append(pts, geo.Pt(x, y))
		}
		b.AddStreet(fmt.Sprintf("s%d", i), pts)
	}
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func sameRouteList(a, b []Route) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i].Score) != math.Float64bits(b[i].Score) ||
			math.Float64bits(a[i].Length) != math.Float64bits(b[i].Length) ||
			math.Float64bits(a[i].Interest) != math.Float64bits(b[i].Interest) ||
			fmt.Sprint(a[i].Vertices) != fmt.Sprint(b[i].Vertices) ||
			fmt.Sprint(a[i].Segments) != fmt.Sprint(b[i].Segments) {
			return false
		}
	}
	return true
}

// A whole-network budget makes the prologue the expensive part. A
// context that is already cancelled must stop it before the first
// vertex is settled or the first interest folded — not after ~V settled
// vertices and ~S folds, which is where the first poll used to be.
func TestPrologueObservesCancelledContext(t *testing.T) {
	g := NewGraph(lattice(t, 12), 0)
	calls := 0
	interest := func(sid network.SegmentID) float64 { calls++; return hashInterest(sid) }
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	q := RouteQuery{Src: 0, Dst: network.VertexID(g.NumVertices() - 1), K: 2, Budget: 1e6}
	_, st, err := TopKRoutes(ctx, g, interest, q, SearchOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if calls != 0 || st.Settled != 0 || st.SegmentsFolded != 0 || st.Expansions != 0 {
		t.Fatalf("work under a cancelled context: %d interest calls, %+v", calls, st)
	}
}

// A deadline that passes while the interests are being folded stops the
// fold at its next poll, before any expansion.
func TestPrologueObservesDeadlineMidFold(t *testing.T) {
	g := NewGraph(lattice(t, 12), 0)
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	calls := 0
	interest := func(sid network.SegmentID) float64 {
		if calls++; calls == 1 {
			<-ctx.Done() // the first fold outlasts the deadline
		}
		return hashInterest(sid)
	}
	q := RouteQuery{Src: 0, Dst: network.VertexID(g.NumVertices() - 1), K: 2, Budget: 1e6}
	_, st, err := TopKRoutes(ctx, g, interest, q, SearchOptions{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if st.Expansions != 0 {
		t.Fatalf("expanded %d partials after the deadline", st.Expansions)
	}
	if calls > ctxPollInterval || st.SegmentsFolded != calls {
		t.Fatalf("%d interest calls (%d counted) after the deadline, poll interval %d", calls, st.SegmentsFolded, ctxPollInterval)
	}
	if st.Settled != 2*g.NumVertices() {
		t.Fatalf("settled %d, want both whole-graph runs (%d)", st.Settled, 2*g.NumVertices())
	}
}

// One scratch serves graphs of different sizes in turn and survives the
// uint32 epoch wrap: stamps a wide graph left behind — in storage a
// narrow graph's query does not cover — must not read as current when
// the counter comes round to their value.
func TestSearchScratchReuseAndEpochWrap(t *testing.T) {
	wide := NewGraph(scatter(t, 31, 60), 0.4)
	narrow := NewGraph(lattice(t, 3), 0)
	ctx := context.Background()
	wideQ := RouteQuery{K: 3, Alpha: 0.1}
pick:
	for src := 0; src < wide.NumVertices(); src++ {
		for v, d := range wide.Distances(network.VertexID(src)) {
			if d > 1.5 && d < 3 {
				wideQ.Src, wideQ.Dst, wideQ.Budget = network.VertexID(src), network.VertexID(v), 1.3*d
				break pick
			}
		}
	}
	narrowQ := RouteQuery{Src: 0, Dst: 8, K: 2, Budget: 6, Alpha: 0.2}
	// An answer with its work counters: stale distances that read as
	// current are under-estimates, which the admissible bounds tolerate —
	// the routes survive, the counters do not.
	type outcome struct {
		routes []Route
		stats  SearchStats
	}
	run := func(sc *searchScratch, g *Graph, q RouteQuery) outcome {
		t.Helper()
		rs, st, err := sc.topKRoutes(ctx, g, hashInterest, q, SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return outcome{rs, st}
	}
	same := func(a, b outcome) bool { return a.stats == b.stats && sameRouteList(a.routes, b.routes) }
	// The same trip backwards reads the same region of every array with
	// different values in it.
	backQ := wideQ
	backQ.Src, backQ.Dst = wideQ.Dst, wideQ.Src
	wantWide := run(new(searchScratch), wide, wideQ)
	wantBack := run(new(searchScratch), wide, backQ)
	wantNarrow := run(new(searchScratch), narrow, narrowQ)
	if len(wantWide.routes) == 0 || len(wantBack.routes) == 0 || len(wantNarrow.routes) == 0 {
		t.Fatal("queries too tight for the test to mean anything")
	}

	sc := new(searchScratch)
	// Epoch 1 stamps the wide graph's arrays; epoch 2, on the narrow
	// graph, leaves the wide graph's tail holding the 1s.
	if !same(run(sc, wide, wideQ), wantWide) {
		t.Fatal("wide query on a fresh scratch differs")
	}
	if !same(run(sc, narrow, narrowQ), wantNarrow) {
		t.Fatal("narrow query after a wide one differs")
	}
	// The last epoch before the wrap runs on the narrow graph too; the
	// backward query then wraps the counter to 1, the value of the stamps
	// the forward query left behind.
	sc.epoch = math.MaxUint32 - 1
	if !same(run(sc, narrow, narrowQ), wantNarrow) {
		t.Fatal("narrow query at the last epoch differs")
	}
	if !same(run(sc, wide, backQ), wantBack) {
		t.Fatal("backward wide query across the wrap differs")
	}
	if sc.epoch != 1 {
		t.Fatalf("epoch after the wrap = %d, want 1", sc.epoch)
	}
	if !same(run(sc, wide, wideQ), wantWide) || !same(run(sc, narrow, narrowQ), wantNarrow) {
		t.Fatal("queries after the wrap differ")
	}
}

// Eight goroutines share one Graph (and so its scratch pool and vertex
// grid); every answer must equal the one computed alone. Run under -race.
func TestGraphConcurrentQueries(t *testing.T) {
	net := scatter(t, 47, 80)
	g := NewGraph(net, 0.4)
	ctx := context.Background()
	type job struct {
		q    RouteQuery
		want []Route
	}
	var jobs []job
	rng := rand.New(rand.NewSource(48))
	for len(jobs) < 12 {
		src := network.VertexID(rng.Intn(g.NumVertices()))
		dist := g.Distances(src)
		dst := network.VertexID(rng.Intn(g.NumVertices()))
		if dst == src || math.IsInf(dist[dst], 1) || dist[dst] > 3 {
			continue
		}
		q := RouteQuery{Src: src, Dst: dst, K: 3, Budget: 1.3 * dist[dst], Alpha: 0.1}
		want, _, err := TopKRoutes(ctx, g, hashInterest, q, SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job{q, want})
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				j := jobs[(w+i)%len(jobs)]
				got, _, err := TopKRoutes(ctx, g, hashInterest, j.q, SearchOptions{})
				if err != nil {
					t.Error(err)
					return
				}
				if !sameRouteList(got, j.want) {
					t.Errorf("worker %d: concurrent answer for %+v differs", w, j.q)
					return
				}
				p := net.Vertex(j.q.Src)
				if v, _ := g.SnapVertex(p); net.Vertex(v) != p {
					t.Errorf("worker %d: snapped %v to vertex %d at %v", w, p, v, net.Vertex(v))
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// The steady-state route query allocates its answer (the route list and
// the two backing arrays its routes share) and nothing else; the matcher
// and the vertex snap allocate nothing.
func TestTrajectoryAllocationPins(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are not meaningful under -race")
	}
	net := lattice(t, 8)
	g := NewGraph(net, 0)
	ctx := context.Background()
	q := RouteQuery{Src: vertexAt(t, net, 1, 1), Dst: vertexAt(t, net, 5, 4), K: 3, Budget: 9, Alpha: 0.25}
	rs, st, err := TopKRoutes(ctx, g, hashInterest, q, SearchOptions{}) // primes the pooled scratch
	if err != nil || len(rs) != 3 || st.Generated < 100 {
		t.Fatalf("routes=%d stats=%+v err=%v: query too small for the pin to mean anything", len(rs), st, err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, _, err := TopKRoutes(ctx, g, hashInterest, q, SearchOptions{}); err != nil {
			t.Fatal(err)
		}
	}); allocs > 8 {
		t.Fatalf("TopKRoutes allocated %.1f objects/op, want ≤ 8", allocs)
	} else {
		t.Logf("TopKRoutes: %.1f allocs/op over %d generated partials", allocs, st.Generated)
	}

	m := NewMatcher(net, 0.3)
	pts := []geo.Point{geo.Pt(2.1, 3.05), geo.Pt(0.5, 0.5), geo.Pt(40, 40)}
	if allocs := testing.AllocsPerRun(100, func() {
		for _, p := range pts {
			m.Match(p)
		}
	}); allocs != 0 {
		t.Fatalf("Matcher.Match allocated %.1f objects/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		for _, p := range pts {
			g.SnapVertex(p)
		}
	}); allocs != 0 {
		t.Fatalf("Graph.SnapVertex allocated %.1f objects/op, want 0", allocs)
	}
}

// The grid snap is the linear scan: same vertex for random points inside
// and far outside the network, for points exactly on cell borders, for
// exact ties (lowest id) and for non-finite coordinates.
func TestSnapVertexMatchesLinearScan(t *testing.T) {
	check := func(label string, g *Graph, p geo.Point) {
		t.Helper()
		want, wok := NearestVertex(g.net, p)
		got, gok := g.SnapVertex(p)
		if got != want || gok != wok {
			t.Fatalf("%s: SnapVertex(%v) = %d/%v, linear scan %d/%v", label, p, got, gok, want, wok)
		}
	}
	for seed := int64(0); seed < 4; seed++ {
		g := NewGraph(scatter(t, 70+seed, 40+int(seed)*40), 0)
		vg := &g.snap
		rng := rand.New(rand.NewSource(90 + seed))
		for i := 0; i < 400; i++ {
			check("inside", g, geo.Pt(rng.Float64()*12-1, rng.Float64()*12-1))
		}
		for i := 0; i < 40; i++ {
			check("outside", g, geo.Pt(rng.Float64()*400-200, rng.Float64()*400-200))
		}
		for i := 0; i < 40; i++ {
			x := vg.minX + float64(rng.Intn(vg.nx+1))*vg.cell
			y := vg.minY + float64(rng.Intn(vg.ny+1))*vg.cell
			check("cell corner", g, geo.Pt(x, y))
			check("cell edge", g, geo.Pt(x, vg.minY+rng.Float64()*float64(vg.ny)*vg.cell))
		}
		for v := 0; v < g.NumVertices(); v += 7 {
			check("on a vertex", g, g.net.Vertex(network.VertexID(v)))
		}
		for _, p := range []geo.Point{
			geo.Pt(1e300, -1e300), geo.Pt(1e15, 3), geo.Pt(math.NaN(), 1), geo.Pt(2, math.NaN()),
			geo.Pt(math.Inf(1), 0), geo.Pt(0, math.Inf(-1)),
		} {
			check("extreme", g, p)
		}
	}

	// Exact ties on a lattice: cell centres are equidistant from four
	// vertices, edge midpoints from two.
	net := lattice(t, 5)
	g := NewGraph(net, 0)
	for x := 0.0; x <= 4; x += 0.5 {
		for y := 0.0; y <= 4; y += 0.5 {
			check("lattice tie", g, geo.Pt(x, y))
		}
	}
	check("far tie", g, geo.Pt(2, 1e6))

	// Degenerate extents: collinear and coincident vertices.
	b := network.NewBuilder()
	b.AddStreet("line", []geo.Point{geo.Pt(5, 5), geo.Pt(6, 5), geo.Pt(9, 5), geo.Pt(9.5, 5)})
	line, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	lg := NewGraph(line, 0)
	for _, p := range []geo.Point{geo.Pt(7.5, 5), geo.Pt(7.5, 100), geo.Pt(-3, 5), geo.Pt(20, -20), geo.Pt(5.5, 5)} {
		check("collinear", lg, p)
	}
	if _, ok := NewGraph(mustBuild(t, network.NewBuilder()), 0).SnapVertex(geo.Pt(0, 0)); ok {
		t.Fatal("SnapVertex on an empty network reported a vertex")
	}
}

func mustBuild(t *testing.T, b *network.Builder) *network.Network {
	t.Helper()
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// Long segments are bucketed in many cells, so a point meets them up to
// nine times; exact distance ties between segments must still resolve
// to the lowest id, as the full ascending scan does.
func TestMatchDuplicateBucketsAndTies(t *testing.T) {
	b := network.NewBuilder()
	// Two long parallels, a diagonal crossing both, and two collinear
	// duplicates of the lower parallel's span under other names.
	b.AddStreet("low", []geo.Point{geo.Pt(0, 0), geo.Pt(10, 0)})
	b.AddStreet("high", []geo.Point{geo.Pt(0, 1), geo.Pt(10, 1)})
	b.AddStreet("diag", []geo.Point{geo.Pt(0, -1), geo.Pt(10, 2)})
	b.AddStreet("low2", []geo.Point{geo.Pt(2, 0), geo.Pt(8, 0)})
	b.AddStreet("high2", []geo.Point{geo.Pt(2, 1), geo.Pt(8, 1)})
	net := mustBuild(t, b)
	fullScan := func(p geo.Point, radius float64) (network.SegmentID, bool) {
		best, bestD2 := network.SegmentID(0), math.Inf(1)
		for sid := 0; sid < net.NumSegments(); sid++ {
			if d2 := net.Segment(network.SegmentID(sid)).Geom.DistToPointSq(p); d2 < bestD2 {
				best, bestD2 = network.SegmentID(sid), d2
			}
		}
		return best, bestD2 <= radius*radius
	}
	rng := rand.New(rand.NewSource(5200))
	ties := 0
	for _, radius := range []float64{0.2, 0.5, 0.75} {
		m := NewMatcher(net, radius)
		var pts []geo.Point
		for x := 0.0; x <= 10; x += 0.25 {
			// The midline is equidistant from both parallels (and their
			// duplicates); y = 0 and y = 1 tie a parallel with its duplicate.
			pts = append(pts, geo.Pt(x, 0.5), geo.Pt(x, 0), geo.Pt(x, 1))
		}
		for i := 0; i < 300; i++ {
			pts = append(pts, geo.Pt(rng.Float64()*12-1, rng.Float64()*4-1.5))
		}
		for _, p := range pts {
			want, wok := fullScan(p, radius)
			got, gok := m.Match(p)
			if gok != wok || (wok && got != want) {
				t.Fatalf("radius %g point %v: match = (%d,%v), full scan = (%d,%v)", radius, p, got, gok, want, wok)
			}
			if wok && p.X >= 2 && p.X <= 8 && (p.Y == 0 || p.Y == 1) {
				ties++
			}
		}
	}
	if ties == 0 {
		t.Fatal("no tied point matched; the test no longer covers the tie-break")
	}
}
