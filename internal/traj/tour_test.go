package traj_test

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/geo"
	"repro/internal/network"
	"repro/internal/traj"
)

// gridNetwork builds an n×n lattice of unit-length streets: horizontal
// streets "h<i>" and vertical streets "v<j>", all intersecting.
func gridNetwork(t *testing.T, n int) *network.Network {
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

// requireShortest checks a rebuilt path against the unbounded reference
// search: its length is the reference distance bit for bit, it starts and
// ends where asked, consecutive vertices are joined by the listed
// segments or by a connector, and the hop lengths add up to the length.
func requireShortest(t *testing.T, g *traj.Graph, src, dst network.VertexID, p traj.Path) {
	t.Helper()
	net := g.Network()
	if want := referenceDistances(g, src)[dst]; math.Float64bits(p.Length) != math.Float64bits(want) {
		t.Fatalf("%d→%d: path length %v, reference distance %v", src, dst, p.Length, want)
	}
	if p.Vertices[0] != src || p.Vertices[len(p.Vertices)-1] != dst {
		t.Fatalf("%d→%d: endpoints of %v", src, dst, p.Vertices)
	}
	var sum float64
	segs := p.Segments
	for i := 1; i < len(p.Vertices); i++ {
		u, v := p.Vertices[i-1], p.Vertices[i]
		if len(segs) > 0 {
			if seg := net.Segment(segs[0]); (seg.From == u && seg.To == v) || (seg.From == v && seg.To == u) {
				sum += seg.Length()
				segs = segs[1:]
				continue
			}
		}
		sum += net.Vertex(u).Dist(net.Vertex(v)) // a connector hop
	}
	if len(segs) != 0 {
		t.Fatalf("%d→%d: segments %v do not follow vertices %v", src, dst, p.Segments, p.Vertices)
	}
	if math.Abs(sum-p.Length) > 1e-9 {
		t.Fatalf("%d→%d: hops sum to %v, length %v", src, dst, sum, p.Length)
	}
}

func TestShortestPathStraightLine(t *testing.T) {
	b := network.NewBuilder()
	b.AddStreet("line", []geo.Point{geo.Pt(0, 0), geo.Pt(1, 0), geo.Pt(2, 0), geo.Pt(3, 0)})
	net, _ := b.Build()
	g := traj.NewGraph(net, 0)
	p, ok := g.ShortestPath(0, 3)
	if !ok {
		t.Fatal("unreachable")
	}
	if p.Length != 3 || len(p.Vertices) != 4 || len(p.Segments) != 3 {
		t.Fatalf("path = %+v", p)
	}
	requireShortest(t, g, 0, 3, p)
}

func TestShortestPathSameVertex(t *testing.T) {
	g := traj.NewGraph(gridNetwork(t, 3), 0)
	p, ok := g.ShortestPath(0, 0)
	if !ok || p.Length != 0 || len(p.Segments) != 0 || len(p.Vertices) != 1 {
		t.Fatalf("self path = %+v, %v", p, ok)
	}
}

func TestShortestPathGrid(t *testing.T) {
	net := gridNetwork(t, 4)
	g := traj.NewGraph(net, 0)
	// Opposite corners of a 4x4 lattice: Manhattan distance 6.
	src, _ := traj.NearestVertex(net, geo.Pt(0, 0))
	dst, _ := traj.NearestVertex(net, geo.Pt(3, 3))
	p, ok := g.ShortestPath(src, dst)
	if !ok || p.Length != 6 {
		t.Fatalf("path = %+v, %v; want length 6", p, ok)
	}
	requireShortest(t, g, src, dst, p)
}

func TestShortestPathUnreachable(t *testing.T) {
	b := network.NewBuilder()
	b.AddStreet("a", []geo.Point{geo.Pt(0, 0), geo.Pt(1, 0)})
	b.AddStreet("b", []geo.Point{geo.Pt(10, 10), geo.Pt(11, 10)})
	net, _ := b.Build()
	g := traj.NewGraph(net, 0)
	if p, ok := g.ShortestPath(0, 2); ok {
		t.Fatalf("path across components: %+v", p)
	}
	if d := g.Distances(0)[2]; !math.IsInf(d, 1) {
		t.Fatalf("distance across components = %v", d)
	}
}

// A source outside the graph reaches nothing; it is not a panic.
func TestShortestPathOutOfRange(t *testing.T) {
	g := traj.NewGraph(gridNetwork(t, 2), 0)
	for v, d := range g.Distances(9999) {
		if !math.IsInf(d, 1) {
			t.Fatalf("vertex %d at distance %v from a vertex outside the graph", v, d)
		}
	}
}

// Property: distances equal the reference search's bit for bit and
// satisfy the triangle inequality over random vertex triples, and every
// rebuilt path is a shortest one.
func TestDijkstraProperties(t *testing.T) {
	net := gridNetwork(t, 6)
	g := traj.NewGraph(net, 0)
	rng := rand.New(rand.NewSource(71))
	n := net.NumVertices()
	for trial := 0; trial < 50; trial++ {
		a := network.VertexID(rng.Intn(n))
		b := network.VertexID(rng.Intn(n))
		c := network.VertexID(rng.Intn(n))
		da, db := g.Distances(a), g.Distances(b)
		for v, want := range referenceDistances(g, a) {
			if math.Float64bits(da[v]) != math.Float64bits(want) {
				t.Fatalf("d(%d,%d) = %v, reference %v", a, v, da[v], want)
			}
		}
		if da[c] > da[b]+db[c]+1e-9 {
			t.Fatalf("triangle inequality violated: d(%d,%d)=%v > %v+%v", a, c, da[c], da[b], db[c])
		}
		p, ok := g.ShortestPath(a, c)
		if !ok {
			t.Fatalf("%d→%d unreachable on a lattice", a, c)
		}
		requireShortest(t, g, a, c, p)
	}
}

// Among exactly tied shortest paths the rebuilt one takes, walking back
// from the destination, the lowest-numbered neighbour every time.
func TestShortestPathTieBreak(t *testing.T) {
	net := gridNetwork(t, 3)
	g := traj.NewGraph(net, 0)
	src, _ := traj.NearestVertex(net, geo.Pt(0, 0))
	dst, _ := traj.NearestVertex(net, geo.Pt(2, 2))
	p, ok := g.ShortestPath(src, dst)
	if !ok {
		t.Fatal("unreachable")
	}
	dist := g.Distances(src)
	for i := len(p.Vertices) - 1; i > 0; i-- {
		v, got := p.Vertices[i], p.Vertices[i-1]
		for _, e := range g.Adjacent(v) {
			if dist[e.To]+e.Len == dist[v] {
				if e.To != got {
					t.Fatalf("predecessor of %d is %d, want the first tied neighbour %d", v, got, e.To)
				}
				break
			}
		}
	}
}

// A zero-length segment is a self-loop (identical points share a vertex)
// and a segment too short to move a float sum ties its endpoints'
// distances; neither may trap or misroute the walk back to the source.
func TestShortestPathDegenerateEdges(t *testing.T) {
	b := network.NewBuilder()
	b.AddStreet("loop", []geo.Point{geo.Pt(0, 0), geo.Pt(1, 0), geo.Pt(1, 0), geo.Pt(2, 0)})
	b.AddStreet("sliver", []geo.Point{geo.Pt(2, 0), geo.Pt(2, 1e-300), geo.Pt(2, 2e-300), geo.Pt(3, 0)})
	b.AddStreet("back", []geo.Point{geo.Pt(2, 2e-300), geo.Pt(2, 0)})
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	g := traj.NewGraph(net, 0)
	for src := 0; src < net.NumVertices(); src++ {
		for dst := 0; dst < net.NumVertices(); dst++ {
			p, ok := g.ShortestPath(network.VertexID(src), network.VertexID(dst))
			if !ok {
				t.Fatalf("%d→%d unreachable", src, dst)
			}
			requireShortest(t, g, network.VertexID(src), network.VertexID(dst), p)
		}
	}
}

func TestRecommendBasic(t *testing.T) {
	net := gridNetwork(t, 5)
	g := traj.NewGraph(net, 0)
	cands := []traj.Candidate{
		{Street: 0, Interest: 10}, // h0
		{Street: 1, Interest: 30}, // h1 — best, tour starts here
		{Street: 5, Interest: 20}, // v0
	}
	tour, err := traj.Recommend(context.Background(), g, cands, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(tour.Stops) != 3 {
		t.Fatalf("stops = %d, want all 3 within the generous budget", len(tour.Stops))
	}
	if tour.Stops[0].Street != 1 {
		t.Fatalf("tour starts at street %d, want the most interesting (1)", tour.Stops[0].Street)
	}
	if tour.Interest != 60 {
		t.Fatalf("Interest = %v", tour.Interest)
	}
	if tour.Length <= 0 {
		t.Fatalf("Length = %v", tour.Length)
	}
	// The first stop has no approach path; later stops reconstruct one.
	if len(tour.Stops[0].Approach.Segments) != 0 {
		t.Fatal("first stop should have no approach")
	}
}

func TestRecommendBudget(t *testing.T) {
	net := gridNetwork(t, 5)
	g := traj.NewGraph(net, 0)
	cands := []traj.Candidate{
		{Street: 0, Interest: 10},
		{Street: 1, Interest: 30},
		{Street: 5, Interest: 20},
	}
	// Budget fits only the starting street (length 4).
	tour, err := traj.Recommend(context.Background(), g, cands, 4.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(tour.Stops) != 1 {
		t.Fatalf("stops = %d, want 1 under a tight budget", len(tour.Stops))
	}
	// Budget accounting: tour length never exceeds the budget when more
	// than the first street is added.
	tour2, err := traj.Recommend(context.Background(), g, cands, 15)
	if err != nil {
		t.Fatal(err)
	}
	if len(tour2.Stops) > 1 && tour2.Length > 15 {
		t.Fatalf("tour length %v exceeds budget", tour2.Length)
	}
}

func TestRecommendErrors(t *testing.T) {
	net := gridNetwork(t, 3)
	g := traj.NewGraph(net, 0)
	if _, err := traj.Recommend(context.Background(), g, nil, 10); err == nil {
		t.Fatal("expected error for no candidates")
	}
	if _, err := traj.Recommend(context.Background(), g, []traj.Candidate{{Street: 0, Interest: 1}}, 0); err == nil {
		t.Fatal("expected error for zero budget")
	}
}

func TestRecommendSkipsUnreachable(t *testing.T) {
	b := network.NewBuilder()
	b.AddStreet("a", []geo.Point{geo.Pt(0, 0), geo.Pt(1, 0)})
	b.AddStreet("island", []geo.Point{geo.Pt(10, 10), geo.Pt(11, 10)})
	net, _ := b.Build()
	g := traj.NewGraph(net, 0)
	tour, err := traj.Recommend(context.Background(), g, []traj.Candidate{
		{Street: 0, Interest: 5},
		{Street: 1, Interest: 1},
	}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(tour.Stops) != 1 || tour.Stops[0].Street != 0 {
		t.Fatalf("tour = %+v, want only the reachable street", tour)
	}
	if len(tour.Unreached) != 1 || tour.Unreached[0].Street != 1 {
		t.Fatalf("unreached = %+v, want the island street", tour.Unreached)
	}
	if tour.Unreached[0].Name != "island" || tour.Unreached[0].Interest != 1 {
		t.Fatalf("unreached entry = %+v, want name/interest carried over", tour.Unreached[0])
	}
}

// Regression: a graph split into several components reports every
// candidate outside the start's component as Unreached — in candidate
// order — while reachable-but-over-budget streets stay unlisted, however
// far beyond the bounded searches' reach they lie.
func TestRecommendDisconnectedComponents(t *testing.T) {
	b := network.NewBuilder()
	b.AddStreet("main", []geo.Point{geo.Pt(0, 0), geo.Pt(1, 0)})            // street 0, component A
	b.AddStreet("side", []geo.Point{geo.Pt(1, 0), geo.Pt(1, 5)})            // street 1, component A (shares vertex)
	b.AddStreet("island1", []geo.Point{geo.Pt(100, 100), geo.Pt(101, 100)}) // street 2, component B
	b.AddStreet("island2", []geo.Point{geo.Pt(200, 200), geo.Pt(201, 200)}) // street 3, component C
	b.AddStreet("far", []geo.Point{geo.Pt(1, 5), geo.Pt(1, 50), geo.Pt(2, 50)})
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	g := traj.NewGraph(net, 0)
	tour, err := traj.Recommend(context.Background(), g, []traj.Candidate{
		{Street: 2, Interest: 4}, // island1: unreachable
		{Street: 0, Interest: 9}, // main: the start
		{Street: 3, Interest: 2}, // island2: unreachable
		{Street: 1, Interest: 1}, // side: reachable but over budget
		{Street: 4, Interest: 1}, // far: reachable, starts past the budget ball
	}, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(tour.Stops) != 1 || tour.Stops[0].Name != "main" {
		t.Fatalf("stops = %+v, want only main", tour.Stops)
	}
	want := []traj.Unreached{
		{Street: 2, Name: "island1", Interest: 4},
		{Street: 3, Name: "island2", Interest: 2},
	}
	if len(tour.Unreached) != len(want) {
		t.Fatalf("unreached = %+v, want %+v", tour.Unreached, want)
	}
	for i, u := range tour.Unreached {
		if u != want[i] {
			t.Fatalf("unreached[%d] = %+v, want %+v", i, u, want[i])
		}
	}
}

// Regression: a fully connected candidate set yields no Unreached
// entries even when the budget stops the tour early.
func TestRecommendUnreachedEmptyWhenConnected(t *testing.T) {
	net := gridNetwork(t, 4)
	g := traj.NewGraph(net, 0)
	var cands []traj.Candidate
	for i := 0; i < 4; i++ {
		cands = append(cands, traj.Candidate{Street: network.StreetID(i), Interest: float64(i + 1)})
	}
	tour, err := traj.Recommend(context.Background(), g, cands, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(tour.Unreached) != 0 {
		t.Fatalf("unreached = %+v, want none on a connected grid", tour.Unreached)
	}
}

// Property: the tour's recomputed length from its parts matches the
// reported total, and every approach is a shortest path from where the
// previous stop ended.
func TestRecommendLengthAccounting(t *testing.T) {
	net := gridNetwork(t, 6)
	g := traj.NewGraph(net, 0)
	rng := rand.New(rand.NewSource(72))
	for trial := 0; trial < 25; trial++ {
		var cands []traj.Candidate
		for i := 0; i < 5; i++ {
			cands = append(cands, traj.Candidate{
				Street:   network.StreetID(rng.Intn(net.NumStreets())),
				Interest: rng.Float64() * 100,
			})
		}
		tour, err := traj.Recommend(context.Background(), g, cands, 10+rng.Float64()*40)
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		for i, s := range tour.Stops {
			sum += s.Approach.Length + net.Street(s.Street).Length()
			if i > 0 {
				prev := net.Street(tour.Stops[i-1].Street).Segments
				from := net.Segment(prev[len(prev)-1]).To
				requireShortest(t, g, from, net.Segment(net.Street(s.Street).Segments[0]).From, s.Approach)
			}
		}
		if math.Abs(sum-tour.Length) > 1e-9 {
			t.Fatalf("length accounting: parts %v != total %v", sum, tour.Length)
		}
	}
}

func TestNewGraphConnected(t *testing.T) {
	// Two crossing streets that share no vertex.
	b := network.NewBuilder()
	b.AddStreet("h", []geo.Point{geo.Pt(0, 0.5), geo.Pt(1, 0.5)})
	b.AddStreet("v", []geo.Point{geo.Pt(0.5, 0), geo.Pt(0.5, 1)})
	net, _ := b.Build()

	// Without connectors the streets are disconnected.
	plain := traj.NewGraph(net, 0)
	if _, ok := plain.ShortestPath(0, 2); ok {
		t.Fatal("plain graph joins the two streets")
	}
	// With a snap radius covering the endpoint gap they connect.
	g := traj.NewGraph(net, 0.8)
	p, ok := g.ShortestPath(0, 2)
	if !ok || p.Length <= 0 {
		t.Fatalf("connected path = %+v, %v", p, ok)
	}
	requireShortest(t, g, 0, 2, p)
	// Connector hops do not appear in the segment list.
	if len(p.Segments) >= len(p.Vertices)-1 {
		t.Fatalf("connector leaked into Segments: %+v", p)
	}
}

// Property: connector edges never shorten paths below the straight-line
// distance between the endpoints.
func TestConnectedPathsLowerBound(t *testing.T) {
	net := gridNetwork(t, 5)
	g := traj.NewGraph(net, 1.2)
	rng := rand.New(rand.NewSource(73))
	for trial := 0; trial < 50; trial++ {
		a := network.VertexID(rng.Intn(net.NumVertices()))
		b := network.VertexID(rng.Intn(net.NumVertices()))
		p, ok := g.ShortestPath(a, b)
		if !ok {
			t.Fatalf("%d→%d unreachable", a, b)
		}
		requireShortest(t, g, a, b, p)
		if straight := net.Vertex(a).Dist(net.Vertex(b)); p.Length < straight-1e-9 {
			t.Fatalf("path %v shorter than straight line %v", p.Length, straight)
		}
	}
}

// The planner observes its context: cancelled while its first search is
// parked on the fault site, it returns context.Canceled, not a tour.
func TestChaosTourBlockedUntilCancel(t *testing.T) {
	defer faults.Reset()
	g := traj.NewGraph(gridNetwork(t, 4), 0)
	cands := []traj.Candidate{{Street: 0, Interest: 3}, {Street: 2, Interest: 2}, {Street: 5, Interest: 1}}

	block := make(chan struct{})
	faults.Activate("traj.tour", faults.Fault{Block: block, Times: 1})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := traj.Recommend(ctx, g, cands, 100)
		done <- err
	}()
	for faults.Visits("traj.tour") == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	close(block)
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("planner did not return after cancel+release")
	}
}
