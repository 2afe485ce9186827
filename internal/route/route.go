// Package route implements the paper's stated future work: "to provide
// route recommendations based on the discovered streets of interest"
// (Section 6). Given the ranked streets of a k-SOI answer, it plans a
// walking tour over the road network that visits as many of them as
// possible within a length budget.
//
// The substrate is a standard shortest-path layer over the network's
// vertex graph (binary-heap Dijkstra); the planner is a greedy
// insertion tour: starting from the most interesting street, repeatedly
// append the street with the best interest-per-detour ratio while the
// budget allows, then emit the full vertex path.
package route

import (
	"container/heap"
	"errors"
	"fmt"
	"math"

	"repro/internal/network"
)

// Graph is an adjacency-list view of a road network, treating every
// street segment as a bidirectional edge weighted by its length (the
// paper's networks are directed graphs digitized from OSM ways; walking
// tours traverse them in both directions).
type Graph struct {
	net *network.Network
	adj [][]edge
}

// connectorSeg marks an edge that is a pedestrian connector between two
// nearby vertices rather than a street segment.
const connectorSeg = int32(-2)

type edge struct {
	to  network.VertexID
	seg int32 // segment id, or connectorSeg
	w   float64
}

// NewGraph builds the adjacency structure of the network using only its
// street segments. Streets that cross geometrically but share no vertex
// (common in digitized data) remain disconnected; use NewGraphConnected
// for tour planning over such networks.
func NewGraph(net *network.Network) *Graph {
	g := &Graph{net: net, adj: make([][]edge, net.NumVertices())}
	for _, seg := range net.Segments() {
		g.adj[seg.From] = append(g.adj[seg.From], edge{to: seg.To, seg: int32(seg.ID), w: seg.Length()})
		g.adj[seg.To] = append(g.adj[seg.To], edge{to: seg.From, seg: int32(seg.ID), w: seg.Length()})
	}
	return g
}

// NewGraphConnected builds the adjacency structure and additionally adds
// pedestrian connector edges between every pair of vertices closer than
// snap, weighted by their Euclidean distance. This joins streets whose
// geometries cross or nearly touch without sharing a vertex.
func NewGraphConnected(net *network.Network, snap float64) *Graph {
	g := NewGraph(net)
	net.VertexPairsWithin(snap, func(u, v network.VertexID, d float64) {
		g.adj[u] = append(g.adj[u], edge{to: v, seg: connectorSeg, w: d})
		g.adj[v] = append(g.adj[v], edge{to: u, seg: connectorSeg, w: d})
	})
	return g
}

// Network returns the underlying road network.
func (g *Graph) Network() *network.Network { return g.net }

// pqItem is a Dijkstra frontier entry.
type pqItem struct {
	v    network.VertexID
	dist float64
}

type pq []pqItem

func (q pq) Len() int            { return len(q) }
func (q pq) Less(i, j int) bool  { return q[i].dist < q[j].dist }
func (q pq) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *pq) Push(x interface{}) { *q = append(*q, x.(pqItem)) }
func (q *pq) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// Path is a shortest path between two vertices.
type Path struct {
	Vertices []network.VertexID
	Segments []network.SegmentID
	Length   float64
}

// ErrUnreachable is returned when no path connects the endpoints.
var ErrUnreachable = errors.New("route: vertices not connected")

// ShortestPath runs Dijkstra from src and reconstructs the path to dst.
func (g *Graph) ShortestPath(src, dst network.VertexID) (Path, error) {
	if int(src) >= len(g.adj) || int(dst) >= len(g.adj) {
		return Path{}, fmt.Errorf("route: vertex out of range (src=%d dst=%d of %d)", src, dst, len(g.adj))
	}
	dist, prevV, prevS := g.dijkstra(src, dst)
	if math.IsInf(dist[dst], 1) {
		return Path{}, fmt.Errorf("%w: %d -> %d", ErrUnreachable, src, dst)
	}
	return g.reconstruct(src, dst, dist, prevV, prevS), nil
}

// ShortestDistances runs Dijkstra from src to every vertex, returning the
// distance slice (math.Inf(1) for unreachable vertices).
func (g *Graph) ShortestDistances(src network.VertexID) []float64 {
	dist, _, _ := g.dijkstra(src, network.VertexID(math.MaxUint32))
	return dist
}

// dijkstra computes shortest distances from src; when stop is a valid
// vertex the search may terminate once it is settled.
func (g *Graph) dijkstra(src, stop network.VertexID) (dist []float64, prevV []int32, prevS []int32) {
	n := len(g.adj)
	dist = make([]float64, n)
	prevV = make([]int32, n)
	prevS = make([]int32, n)
	for i := range dist {
		dist[i] = math.Inf(1)
		prevV[i] = -1
		prevS[i] = -1
	}
	dist[src] = 0
	q := pq{{v: src, dist: 0}}
	for len(q) > 0 {
		it := heap.Pop(&q).(pqItem)
		if it.dist > dist[it.v] {
			continue // stale entry
		}
		if it.v == stop {
			return dist, prevV, prevS
		}
		for _, e := range g.adj[it.v] {
			if nd := it.dist + e.w; nd < dist[e.to] {
				dist[e.to] = nd
				prevV[e.to] = int32(it.v)
				prevS[e.to] = e.seg
				heap.Push(&q, pqItem{v: e.to, dist: nd})
			}
		}
	}
	return dist, prevV, prevS
}

func (g *Graph) reconstruct(src, dst network.VertexID, dist []float64, prevV, prevS []int32) Path {
	var vs []network.VertexID
	var segs []network.SegmentID
	for v := dst; ; {
		vs = append(vs, v)
		if v == src {
			break
		}
		if prevS[v] != connectorSeg {
			segs = append(segs, network.SegmentID(prevS[v]))
		}
		v = network.VertexID(prevV[v])
	}
	// Reverse into src→dst order.
	for i, j := 0, len(vs)-1; i < j; i, j = i+1, j-1 {
		vs[i], vs[j] = vs[j], vs[i]
	}
	for i, j := 0, len(segs)-1; i < j; i, j = i+1, j-1 {
		segs[i], segs[j] = segs[j], segs[i]
	}
	return Path{Vertices: vs, Segments: segs, Length: dist[dst]}
}

// Stop is one street visit of a recommended tour.
type Stop struct {
	Street   network.StreetID
	Name     string
	Interest float64
	// Approach is the path walked from the previous stop (empty for the
	// first stop).
	Approach Path
}

// Unreached records a candidate street the planner had to drop because
// no path connects it to the tour — it lives in a different connected
// component of the graph. It is distinct from streets that were merely
// over budget: those are reachable and simply omitted.
type Unreached struct {
	Street   network.StreetID
	Name     string
	Interest float64
}

// Tour is a recommended walking route over streets of interest.
type Tour struct {
	Stops []Stop
	// Length is the total walking length: approach paths plus the
	// traversed length of every visited street.
	Length float64
	// Interest is the summed interest of the visited streets.
	Interest float64
	// Unreached lists the candidate streets in no connected component of
	// the tour, in candidate order. Callers that must visit everything
	// can rebuild the graph with a larger connector snap radius (see
	// NewGraphConnected) and re-plan.
	Unreached []Unreached
}

// Candidate pairs a street with its interest score; the k-SOI answer in
// planner form.
type Candidate struct {
	Street   network.StreetID
	Interest float64
}

// Recommend plans a tour over the candidate streets: it starts at the
// most interesting street and greedily appends the street with the
// highest interest-per-detour ratio until the length budget is exhausted.
// Unreachable candidates are skipped. At least one stop is always
// returned when any candidate exists, even if its street alone exceeds
// the budget.
func Recommend(g *Graph, candidates []Candidate, budget float64) (Tour, error) {
	if len(candidates) == 0 {
		return Tour{}, errors.New("route: no candidate streets")
	}
	if budget <= 0 {
		return Tour{}, fmt.Errorf("route: non-positive budget %v", budget)
	}
	// Pick the start: the highest-interest candidate.
	start := 0
	for i, c := range candidates {
		if c.Interest > candidates[start].Interest {
			start = i
		}
	}
	visited := map[int]bool{start: true}
	startStreet := g.net.Street(candidates[start].Street)
	tour := Tour{
		Stops: []Stop{{
			Street:   candidates[start].Street,
			Name:     startStreet.Name,
			Interest: candidates[start].Interest,
		}},
		Length:   startStreet.Length(),
		Interest: candidates[start].Interest,
	}
	// Current position: the end vertex of the last visited street.
	cur := streetEnd(g.net, candidates[start].Street)
	for len(visited) < len(candidates) {
		dist, prevV, prevS := g.dijkstra(cur, network.VertexID(math.MaxUint32))
		bestIdx := -1
		var bestRatio float64
		var bestPath Path
		for i, c := range candidates {
			if visited[i] {
				continue
			}
			entry := streetStart(g.net, c.Street)
			d := dist[entry]
			if math.IsInf(d, 1) {
				continue
			}
			st := g.net.Street(c.Street)
			cost := d + st.Length()
			if tour.Length+cost > budget {
				continue
			}
			ratio := c.Interest / (cost + 1e-12)
			if bestIdx == -1 || ratio > bestRatio {
				bestIdx = i
				bestRatio = ratio
				bestPath = g.reconstruct(cur, entry, dist, prevV, prevS)
			}
		}
		if bestIdx == -1 {
			break // nothing reachable fits the budget
		}
		c := candidates[bestIdx]
		st := g.net.Street(c.Street)
		visited[bestIdx] = true
		tour.Stops = append(tour.Stops, Stop{
			Street:   c.Street,
			Name:     st.Name,
			Interest: c.Interest,
			Approach: bestPath,
		})
		tour.Length += bestPath.Length + st.Length()
		tour.Interest += c.Interest
		cur = streetEnd(g.net, c.Street)
	}
	if len(visited) < len(candidates) {
		// Classify the leftovers: reachability is a component property of
		// the undirected graph, so one distance pass from the final
		// position settles it for every remaining candidate.
		dist, _, _ := g.dijkstra(cur, network.VertexID(math.MaxUint32))
		for i, c := range candidates {
			if visited[i] {
				continue
			}
			if math.IsInf(dist[streetStart(g.net, c.Street)], 1) {
				tour.Unreached = append(tour.Unreached, Unreached{
					Street:   c.Street,
					Name:     g.net.Street(c.Street).Name,
					Interest: c.Interest,
				})
			}
		}
	}
	return tour, nil
}

// streetStart returns the first vertex of the street's segment path.
func streetStart(net *network.Network, id network.StreetID) network.VertexID {
	return net.Segment(net.Street(id).Segments[0]).From
}

// streetEnd returns the last vertex of the street's segment path.
func streetEnd(net *network.Network, id network.StreetID) network.VertexID {
	segs := net.Street(id).Segments
	return net.Segment(segs[len(segs)-1]).To
}
