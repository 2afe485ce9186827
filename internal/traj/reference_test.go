package traj_test

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/network"
	"repro/internal/oracle"
	"repro/internal/traj"
)

// This file keeps the route search as it stood before it was bounded by
// the budget — two whole-graph shortest-path runs (the oracle's),
// per-segment tables sized to the network, boxed partials that copy their
// sequences, container/heap and the reflective stable sort — written
// against the package's exported surface only, and holds the production
// search to it: same routes, same floats, same work counters.

// referenceDistances is oracle.Distances over the graph's adjacency.
func referenceDistances(g *traj.Graph, src network.VertexID) []float64 {
	adj := make([][]traj.Edge, g.NumVertices())
	for v := range adj {
		adj[v] = g.Adjacent(network.VertexID(v))
	}
	return oracle.Distances(adj, src)
}

type refPartial struct {
	verts    []network.VertexID
	segs     []network.SegmentID
	length   float64
	interest float64
	remPos   float64
	ub       float64
}

type refFrontier []*refPartial

func (f refFrontier) Len() int { return len(f) }
func (f refFrontier) Less(i, j int) bool {
	a, b := f[i], f[j]
	if a.ub != b.ub {
		return a.ub > b.ub
	}
	if a.length != b.length {
		return a.length < b.length
	}
	for k := 0; k < len(a.verts) && k < len(b.verts); k++ {
		if a.verts[k] != b.verts[k] {
			return a.verts[k] < b.verts[k]
		}
	}
	return len(a.verts) < len(b.verts)
}
func (f refFrontier) Swap(i, j int)       { f[i], f[j] = f[j], f[i] }
func (f *refFrontier) Push(x interface{}) { *f = append(*f, x.(*refPartial)) }
func (f *refFrontier) Pop() interface{} {
	old := *f
	p := old[len(old)-1]
	*f = old[:len(old)-1]
	return p
}

type refScoreHeap []float64

func (h refScoreHeap) Len() int            { return len(h) }
func (h refScoreHeap) Less(i, j int) bool  { return h[i] < h[j] }
func (h refScoreHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refScoreHeap) Push(x interface{}) { *h = append(*h, x.(float64)) }
func (h *refScoreHeap) Pop() interface{} {
	old := *h
	v := old[len(old)-1]
	*h = old[:len(old)-1]
	return v
}

func refBelowThreshold(ub, threshold float64) bool {
	if math.IsInf(threshold, -1) {
		return false
	}
	slack := traj.BoundSlack * (math.Abs(ub) + math.Abs(threshold) + 1)
	return ub+slack < threshold
}

// refProlog reports what the unbounded prologue did, for the counters
// the bounded search added: the two budget balls' sizes and the number
// of segment interests it evaluated.
type refProlog struct {
	ballToDst, ballFromSrc int
	folded                 int
	srcBeyondBudget        bool
}

func referenceTopKRoutes(g *traj.Graph, interest traj.InterestFunc, q traj.RouteQuery, maxExp int) ([]traj.Route, traj.SearchStats, refProlog, error) {
	var st traj.SearchStats
	var pro refProlog
	net := g.Network()

	distToDst := referenceDistances(g, q.Dst)
	budgetCap := q.Budget * (1 + traj.BoundSlack)
	for _, d := range distToDst {
		if d <= budgetCap {
			pro.ballToDst++
		}
	}
	pro.srcBeyondBudget = distToDst[q.Src] > budgetCap
	if math.IsInf(distToDst[q.Src], 1) {
		return []traj.Route{}, st, pro, nil
	}
	distFromSrc := referenceDistances(g, q.Src)
	for _, d := range distFromSrc {
		if d <= budgetCap {
			pro.ballFromSrc++
		}
	}

	interests := make([]float64, net.NumSegments())
	evaluated := make([]bool, net.NumSegments())
	type needEntry struct{ need, pos float64 }
	var entries []needEntry
	for u := 0; u < g.NumVertices(); u++ {
		du := distFromSrc[u]
		if math.IsInf(du, 1) {
			continue
		}
		for _, e := range g.Adjacent(network.VertexID(u)) {
			if e.Seg == traj.ConnectorSeg {
				continue
			}
			if du+e.Len+distToDst[e.To] > budgetCap {
				continue
			}
			if evaluated[e.Seg] {
				continue
			}
			evaluated[e.Seg] = true
			pro.folded++
			iv := interest(network.SegmentID(e.Seg))
			interests[e.Seg] = iv
			if iv > 0 {
				entries = append(entries, needEntry{
					need: e.Len + math.Min(distToDst[network.VertexID(u)], distToDst[e.To]),
					pos:  iv,
				})
			}
		}
	}
	sort.SliceStable(entries, func(i, j int) bool { return entries[i].need < entries[j].need })
	needs := make([]float64, len(entries))
	prefixPos := make([]float64, len(entries)+1)
	for i, en := range entries {
		needs[i] = en.need
		prefixPos[i+1] = prefixPos[i] + en.pos
	}
	reachPos := func(r float64) float64 {
		return prefixPos[sort.Search(len(needs), func(i int) bool { return needs[i] > r })]
	}
	posTotal := prefixPos[len(entries)]

	var completions []traj.Route
	var top refScoreHeap
	threshold := math.Inf(-1)

	f := refFrontier{&refPartial{
		verts:  []network.VertexID{q.Src},
		remPos: posTotal,
		ub:     posTotal - q.Alpha*distToDst[q.Src],
	}}
	heap.Init(&f)

	for f.Len() > 0 {
		if st.Expansions >= maxExp {
			return nil, st, pro, fmt.Errorf("%w (%d expansions)", traj.ErrSearchBudget, st.Expansions)
		}
		p := heap.Pop(&f).(*refPartial)
		st.Expansions++
		if refBelowThreshold(p.ub, threshold) {
			st.PrunedBound++
			continue
		}
		last := p.verts[len(p.verts)-1]
		if last == q.Dst {
			score := p.interest - q.Alpha*p.length
			completions = append(completions, traj.Route{
				Vertices: p.verts,
				Segments: p.segs,
				Length:   p.length,
				Interest: p.interest,
				Score:    score,
			})
			st.Completed++
			if top.Len() < q.K {
				heap.Push(&top, score)
			} else if score > top[0] {
				top[0] = score
				heap.Fix(&top, 0)
			}
			if top.Len() == q.K {
				threshold = top[0]
			}
			continue
		}
	edges:
		for _, e := range g.Adjacent(last) {
			for _, v := range p.verts {
				if v == e.To {
					continue edges
				}
			}
			newLen := p.length + e.Len
			if newLen > q.Budget {
				st.PrunedBudget++
				continue
			}
			if newLen+distToDst[e.To] > budgetCap {
				st.PrunedBudget++
				continue
			}
			newInterest := p.interest
			newRemPos := p.remPos
			if e.Seg != traj.ConnectorSeg {
				iv := interests[e.Seg]
				newInterest += iv
				if iv > 0 {
					newRemPos -= iv
				}
			}
			rem := newRemPos
			if rp := reachPos(budgetCap - newLen); rp < rem {
				rem = rp
			}
			ub := newInterest + rem - q.Alpha*(newLen+distToDst[e.To])
			if refBelowThreshold(ub, threshold) {
				st.PrunedBound++
				continue
			}
			child := &refPartial{
				verts:    append(append(make([]network.VertexID, 0, len(p.verts)+1), p.verts...), e.To),
				segs:     p.segs,
				length:   newLen,
				interest: newInterest,
				remPos:   newRemPos,
				ub:       ub,
			}
			if e.Seg != traj.ConnectorSeg {
				child.segs = append(append(make([]network.SegmentID, 0, len(p.segs)+1), p.segs...), network.SegmentID(e.Seg))
			}
			heap.Push(&f, child)
			st.Generated++
		}
	}

	traj.SortRoutes(completions)
	if len(completions) > q.K {
		completions = completions[:q.K]
	}
	return completions, st, pro, nil
}

func sameRoutes(got, want []traj.Route) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d routes, reference has %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if math.Float64bits(g.Score) != math.Float64bits(w.Score) ||
			math.Float64bits(g.Length) != math.Float64bits(w.Length) ||
			math.Float64bits(g.Interest) != math.Float64bits(w.Interest) {
			return fmt.Sprintf("rank %d: score/length/interest %v/%v/%v, reference %v/%v/%v",
				i, g.Score, g.Length, g.Interest, w.Score, w.Length, w.Interest)
		}
		if fmt.Sprint(g.Vertices) != fmt.Sprint(w.Vertices) || fmt.Sprint(g.Segments) != fmt.Sprint(w.Segments) {
			return fmt.Sprintf("rank %d: path %v via %v, reference %v via %v", i, g.Vertices, g.Segments, w.Vertices, w.Segments)
		}
	}
	return ""
}

// refMaxExpansions caps both searches alike: a whole-graph budget over
// even a tiny world is an exponential enumeration, and the two must then
// give up at the same pop with the same counters.
const refMaxExpansions = 4000

// compareWithReference runs one query through both searches and checks
// the equivalence contract. It reports whether the pair was feasible
// and whether the searches ran into the expansion guard.
func compareWithReference(t *testing.T, label string, g *traj.Graph, interest traj.InterestFunc, q traj.RouteQuery) (feasible, exhausted bool) {
	t.Helper()
	want, wantSt, pro, wantErr := referenceTopKRoutes(g, interest, q, refMaxExpansions)
	got, gotSt, gotErr := traj.TopKRoutes(context.Background(), g, interest, q, traj.SearchOptions{MaxExpansions: refMaxExpansions})
	if (wantErr == nil) != (gotErr == nil) || (wantErr != nil && !errors.Is(gotErr, traj.ErrSearchBudget)) {
		t.Fatalf("%s: err = %v, reference err = %v", label, gotErr, wantErr)
	}
	if d := sameRoutes(got, want); d != "" {
		t.Fatalf("%s: %s", label, d)
	}
	if pro.srcBeyondBudget {
		// The one permitted difference: the reference pops the source and
		// finds every edge over budget; the bounded search never starts.
		if len(want) != 0 || len(got) != 0 {
			t.Fatalf("%s: source beyond the budget yet routes %d / reference %d", label, len(got), len(want))
		}
		if gotSt.Expansions != 0 || gotSt.Generated != 0 || gotSt.Completed != 0 || gotSt.PrunedBound != 0 || gotSt.SegmentsFolded != 0 {
			t.Fatalf("%s: work beyond the budget: %+v", label, gotSt)
		}
		if wantSt.Expansions > 1 || wantSt.Generated != 0 {
			t.Fatalf("%s: reference expanded past an infeasible source: %+v", label, wantSt)
		}
		if gotSt.Settled != pro.ballToDst {
			t.Fatalf("%s: settled %d, destination ball holds %d", label, gotSt.Settled, pro.ballToDst)
		}
		return false, false
	}
	gotOld := gotSt
	gotOld.Settled, gotOld.SegmentsFolded = 0, 0
	if gotOld != wantSt {
		t.Fatalf("%s: stats %+v, reference %+v", label, gotOld, wantSt)
	}
	if gotSt.Settled != pro.ballToDst+pro.ballFromSrc {
		t.Fatalf("%s: settled %d, the two budget balls hold %d + %d", label, gotSt.Settled, pro.ballToDst, pro.ballFromSrc)
	}
	if gotSt.SegmentsFolded != pro.folded {
		t.Fatalf("%s: folded %d segments, reference %d", label, gotSt.SegmentsFolded, pro.folded)
	}
	return true, gotErr != nil
}

// TestBoundedSearchMatchesUnboundedReference sweeps the oracle's world
// matrix × random vertex pairs × budgets from below the shortest path to
// the whole graph × α ∈ {0, 1000}, with the production index's segment
// interests, and requires the bounded search to be indistinguishable
// from the unbounded reference.
func TestBoundedSearchMatchesUnboundedReference(t *testing.T) {
	seeds := 6
	if testing.Short() {
		seeds = 2
	}
	feasible, infeasible, exhausted := 0, 0, 0
	for seed := int64(0); seed < int64(seeds); seed++ {
		for _, cfg := range oracle.MatrixConfigs(seed, true) {
			w, err := cfg.BuildWorld()
			if err != nil {
				t.Fatal(err)
			}
			net, pois, _, dict, err := w.Build()
			if err != nil {
				t.Fatal(err)
			}
			ix, err := core.NewIndex(net, pois, core.IndexConfig{CellSize: 0.0005})
			if err != nil {
				t.Fatal(err)
			}
			g := traj.NewGraph(net, traj.DefaultSnap(net))
			var total float64
			for v := 0; v < g.NumVertices(); v++ {
				for _, e := range g.Adjacent(network.VertexID(v)) {
					total += e.Len
				}
			}
			rng := rand.New(rand.NewSource(1600 + seed))
			for pair := 0; pair < 6; pair++ {
				src := network.VertexID(rng.Intn(g.NumVertices()))
				dst := network.VertexID(rng.Intn(g.NumVertices()))
				query := cfg.Queries[pair%len(cfg.Queries)]
				set, _ := dict.LookupAll(query.Keywords)
				interest := func(sid network.SegmentID) float64 { return ix.SegmentInterest(sid, set, query.Epsilon) }
				shortest := referenceDistances(g, dst)[src]
				if math.IsInf(shortest, 1) || shortest == 0 {
					// Disconnected or src == dst: any budget is "the" budget.
					shortest = total / float64(g.NumVertices())
				}
				for _, budget := range []float64{0.6 * shortest, shortest, 1.2 * shortest, 3 * shortest, total} {
					for _, alpha := range []float64{0, 1000} {
						q := traj.RouteQuery{Src: src, Dst: dst, K: 1 + pair%3, Budget: budget, Alpha: alpha}
						label := fmt.Sprintf("%s %d→%d budget=%g α=%g", cfg.Label(), src, dst, budget, alpha)
						ok, guard := compareWithReference(t, label, g, interest, q)
						if ok {
							feasible++
						} else {
							infeasible++
						}
						if guard {
							exhausted++
						}
					}
				}
			}
		}
	}
	if feasible == 0 || infeasible == 0 || exhausted == 0 {
		t.Fatalf("matrix too narrow: %d feasible, %d infeasible, %d exhausted cases", feasible, infeasible, exhausted)
	}
	t.Logf("%d feasible, %d infeasible, %d expansion-guard cases", feasible, infeasible, exhausted)
}

// TestBoundedSearchMatchesReferenceOnLattices repeats the sweep on unit
// lattices, where everything ties: equal distances make the order in
// which vertices settle, segments fold and equal needs stay stable
// visible in the prefix sums, and parallel shortest paths tie on
// (ub, length) in the frontier.
func TestBoundedSearchMatchesReferenceOnLattices(t *testing.T) {
	for n := 3; n <= 6; n++ {
		b := network.NewBuilder()
		for i := 0; i < n; i++ {
			row, col := make([]geo.Point, n), make([]geo.Point, n)
			for j := 0; j < n; j++ {
				row[j], col[j] = geo.Pt(float64(j), float64(i)), geo.Pt(float64(i), float64(j))
			}
			b.AddStreet("h", row)
			b.AddStreet("v", col)
		}
		net, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		g := traj.NewGraph(net, 0)
		interest := func(sid network.SegmentID) float64 {
			return float64((uint64(sid)*2654435761)%7) / 3
		}
		rng := rand.New(rand.NewSource(1800 + int64(n)))
		for pair := 0; pair < 12; pair++ {
			src := network.VertexID(rng.Intn(g.NumVertices()))
			dst := network.VertexID(rng.Intn(g.NumVertices()))
			shortest := math.Max(referenceDistances(g, dst)[src], 1)
			for _, budget := range []float64{0.5 * shortest, shortest, 1.2 * shortest, shortest + 2, float64(2 * n * n)} {
				for _, alpha := range []float64{0, 0.25, 1000} {
					q := traj.RouteQuery{Src: src, Dst: dst, K: 1 + pair%4, Budget: budget, Alpha: alpha}
					compareWithReference(t, fmt.Sprintf("lattice %d: %d→%d budget=%g α=%g", n, src, dst, budget, alpha), g, interest, q)
				}
			}
		}
	}
}

// TestBoundedSearchEdgeCases: the trips with no search to speak of —
// source equal to destination, a pair in different components, a pair
// joined only by a connector — agree with the reference, and a vertex
// outside the graph is refused before any scratch is touched.
func TestBoundedSearchEdgeCases(t *testing.T) {
	b := network.NewBuilder()
	b.AddStreet("a", []geo.Point{geo.Pt(0, 0), geo.Pt(1, 0), geo.Pt(2, 0)})
	b.AddStreet("b", []geo.Point{geo.Pt(2.05, 0), geo.Pt(3, 0)})
	b.AddStreet("island", []geo.Point{geo.Pt(50, 50), geo.Pt(51, 50)})
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	g := traj.NewGraph(net, 0.1)
	one := func(network.SegmentID) float64 { return 1 }
	for _, c := range []struct {
		name     string
		src, dst network.VertexID
		budget   float64
		feasible bool
		routes   int
	}{
		{"src == dst", 1, 1, 10, true, 1},
		{"src == dst, tiny budget", 1, 1, 1e-9, true, 1},
		{"across the connector", 0, 4, 10, true, 1},
		{"other component", 0, 5, 1000, false, 0},
		{"beyond the budget", 0, 4, 2, false, 0},
	} {
		q := traj.RouteQuery{Src: c.src, Dst: c.dst, K: 3, Budget: c.budget, Alpha: 0.5}
		if ok, _ := compareWithReference(t, c.name, g, one, q); ok != c.feasible {
			t.Fatalf("%s: feasible = %v, want %v", c.name, ok, c.feasible)
		}
		rs, _, err := traj.TopKRoutes(context.Background(), g, one, q, traj.SearchOptions{})
		if err != nil || rs == nil || len(rs) != c.routes {
			t.Fatalf("%s: routes = %#v, err = %v; want %d routes in a non-nil list", c.name, rs, err, c.routes)
		}
	}
	for _, q := range []traj.RouteQuery{
		{Src: 0, Dst: network.VertexID(g.NumVertices()), K: 1, Budget: 5},
		{Src: network.VertexID(g.NumVertices() + 7), Dst: 0, K: 1, Budget: 5},
	} {
		if _, _, err := traj.TopKRoutes(context.Background(), g, one, q, traj.SearchOptions{}); err == nil {
			t.Fatalf("vertex out of range accepted: %+v", q)
		}
	}
}

// TestDistancesWithinMatchesDistances: over the same worlds, the bounded
// run equals the reference field bit for bit on every vertex within the
// limit and is +Inf beyond it, Distances is its unbounded case, and the
// settled count is the ball's size.
func TestDistancesWithinMatchesDistances(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		w, err := oracle.MatrixConfigs(seed, true)[0].BuildWorld()
		if err != nil {
			t.Fatal(err)
		}
		net, _, _, _, err := w.Build()
		if err != nil {
			t.Fatal(err)
		}
		g := traj.NewGraph(net, traj.DefaultSnap(net))
		rng := rand.New(rand.NewSource(1700 + seed))
		for trial := 0; trial < 8; trial++ {
			src := network.VertexID(rng.Intn(g.NumVertices()))
			want := referenceDistances(g, src)
			for v, d := range g.Distances(src) {
				if math.Float64bits(d) != math.Float64bits(want[v]) {
					t.Fatalf("seed %d src %d: Distances[%d] = %v, reference %v", seed, src, v, d, want[v])
				}
			}
			var far float64
			for _, d := range want {
				if !math.IsInf(d, 1) && d > far {
					far = d
				}
			}
			// Limits between, exactly at, and beyond real distances.
			limits := []float64{0, far * rng.Float64(), want[rng.Intn(len(want))], far, math.Inf(1)}
			for _, limit := range limits {
				if math.IsInf(limit, 1) && limit != limits[len(limits)-1] {
					continue // an unreachable vertex's distance drawn as a limit
				}
				got, settled := g.DistancesWithin(src, limit)
				ball := 0
				for v, d := range want {
					switch {
					case d <= limit && !math.IsInf(d, 1):
						ball++
						if math.Float64bits(got[v]) != math.Float64bits(d) {
							t.Fatalf("seed %d src %d limit %v: dist[%d] = %v, unbounded %v", seed, src, limit, v, got[v], d)
						}
					case !math.IsInf(got[v], 1):
						t.Fatalf("seed %d src %d limit %v: dist[%d] = %v beyond the limit (unbounded %v)", seed, src, limit, v, got[v], d)
					}
				}
				if settled != ball {
					t.Fatalf("seed %d src %d limit %v: settled %d, ball holds %d", seed, src, limit, settled, ball)
				}
			}
		}
	}
}
