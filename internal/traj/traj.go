// Package traj opens the trajectory query family over the road network:
// the k most interesting routes between two points (a best-first path
// search whose edge weight blends travel cost with per-segment interest
// mass) and trajectory-aware SOI (streets ranked by interest restricted
// to corridors actually traveled by user movement traces). The tour
// planner over a k-SOI answer (tour.go) walks the same graph type with the
// same bounded search.
//
// Both queries are deliberately split from their inputs' provenance: the
// search and the matcher consume a per-segment interest function, so the
// production engine can plug in the slab index's segment mass folds while
// the brute-force oracle plugs in its exhaustive pairwise scan. Because
// the index's SegmentMass is pinned bit-identical to the oracle's (the
// metamorphic suite's per-segment differential), the two sides feed the
// search identical floats — any disagreement in the answers isolates a
// bug in the search or the pruning, which is exactly what the
// differential harness wants to test.
//
// Determinism contract: every result list is canonically ordered (score
// descending, then length ascending, then lexicographic vertex sequence
// for routes; score descending then ascending street id for corridor
// rankings), path sums are accumulated in traversal order, and all
// tie-breaks are explicit — so answers are reproducible bit for bit
// across runs, worker counts and pruning decisions.
package traj

import (
	"context"
	"math"
	"sort"
	"sync"

	"repro/internal/geo"
	"repro/internal/network"
)

// InterestFunc returns the exact interest of one segment under the
// query's keyword set and ε (Def. 2). The production engine backs it
// with the index's segment mass fold; the oracle with an exhaustive
// scan. It must be deterministic and non-negative.
type InterestFunc func(sid network.SegmentID) float64

// ConnectorSeg marks an adjacency edge that is a pedestrian connector
// between two near-miss vertices rather than a street segment.
const ConnectorSeg = int32(-1)

// Edge is one adjacency entry of the trajectory graph.
type Edge struct {
	To network.VertexID
	// Seg is the traversed segment id, or ConnectorSeg.
	Seg int32
	// Len is the edge's walking length.
	Len float64
}

// Graph is the adjacency view of the network the trajectory queries
// search over: every street segment as a bidirectional edge plus
// pedestrian connectors joining vertices closer than the snap radius.
// Adjacency lists are canonically sorted (ascending target vertex, then
// ascending segment id), so exploration order is deterministic. The
// lists live in one CSR array, and the graph owns what a query needs
// beside them — a grid of vertex buckets for snapping request
// coordinates and a pool of search scratch — so a route query's cost
// follows its budget ball, not the network (see searchScratch).
//
// A Graph is immutable after NewGraph and safe for concurrent use. It
// must not be copied: it holds a sync.Pool.
type Graph struct {
	net *network.Network
	// Vertex v's canonical edge list is edges[off[v]:off[v+1]].
	off   []uint32
	edges []Edge

	snap vertexGrid
	pool sync.Pool // *searchScratch
}

// NewGraph builds the trajectory graph. A positive snap joins every
// vertex pair closer than snap with a connector edge weighted by its
// Euclidean distance (grid-bucketed, so construction is near-linear);
// snap <= 0 keeps only street segments.
func NewGraph(net *network.Network, snap float64) *Graph {
	adj := make([][]Edge, net.NumVertices())
	for _, seg := range net.Segments() {
		adj[seg.From] = append(adj[seg.From], Edge{To: seg.To, Seg: int32(seg.ID), Len: seg.Length()})
		adj[seg.To] = append(adj[seg.To], Edge{To: seg.From, Seg: int32(seg.ID), Len: seg.Length()})
	}
	net.VertexPairsWithin(snap, func(u, v network.VertexID, d float64) {
		adj[u] = append(adj[u], Edge{To: v, Seg: ConnectorSeg, Len: d})
		adj[v] = append(adj[v], Edge{To: u, Seg: ConnectorSeg, Len: d})
	})
	g := &Graph{net: net, off: make([]uint32, len(adj)+1), snap: newVertexGrid(net)}
	total := 0
	for _, es := range adj {
		total += len(es)
	}
	g.edges = make([]Edge, 0, total)
	for v, es := range adj {
		sort.Slice(es, func(i, j int) bool {
			if es[i].To != es[j].To {
				return es[i].To < es[j].To
			}
			return es[i].Seg < es[j].Seg
		})
		g.edges = append(g.edges, es...)
		g.off[v+1] = uint32(len(g.edges))
	}
	g.pool.New = func() interface{} { return new(searchScratch) }
	return g
}

// Network returns the underlying road network.
func (g *Graph) Network() *network.Network { return g.net }

// Adjacent returns the canonical adjacency list of a vertex. The slice
// is shared with the graph and must not be mutated.
func (g *Graph) Adjacent(v network.VertexID) []Edge { return g.edges[g.off[v]:g.off[v+1]] }

// NumVertices returns the graph's vertex count.
func (g *Graph) NumVertices() int { return len(g.off) - 1 }

// DefaultSnapFactor sizes the connector snap radius relative to the
// network's mean segment length. It is deliberately tighter than the
// tour planner's 1.5 so the path search's branching factor stays small.
const DefaultSnapFactor = 0.75

// DefaultSnap returns the connector snap radius used when callers have
// no better estimate: DefaultSnapFactor times the mean segment length
// (0 for an empty network).
func DefaultSnap(net *network.Network) float64 {
	st := net.Stats()
	if st.NumSegments == 0 {
		return 0
	}
	return DefaultSnapFactor * st.TotalLen / float64(st.NumSegments)
}

// NearestVertex snaps a free point to the network vertex nearest to it,
// breaking exact distance ties by the lowest vertex id. The boolean is
// false only for an empty network. It scans every vertex: the reference
// Graph.SnapVertex — what the serving path calls — is held to.
func NearestVertex(net *network.Network, p geo.Point) (network.VertexID, bool) {
	if net.NumVertices() == 0 {
		return 0, false
	}
	best := network.VertexID(0)
	bestD := p.DistSq(net.Vertex(0))
	for v := 1; v < net.NumVertices(); v++ {
		if d := p.DistSq(net.Vertex(network.VertexID(v))); d < bestD {
			best, bestD = network.VertexID(v), d
		}
	}
	return best, true
}

// Distances runs Dijkstra from src over the graph, returning the
// shortest walking distance to every vertex (+Inf when unreachable). It
// is the unbounded case of the search the route query runs inside its
// budget (distancesWithin), kept for callers that want the whole field:
// the oracle, the harness's case derivation and the benchmark's pool.
func (g *Graph) Distances(src network.VertexID) []float64 {
	dist, _ := g.denseDistances(src, math.Inf(1))
	return dist
}

// denseDistances runs distancesWithin on a pooled scratch and spreads
// the result over a fresh per-vertex array, +Inf where the run did not
// reach; it also reports how many vertices were settled.
func (g *Graph) denseDistances(src network.VertexID, limit float64) ([]float64, int) {
	dist := make([]float64, g.NumVertices())
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	if int(src) >= g.NumVertices() {
		return dist, 0
	}
	sc := g.pool.Get().(*searchScratch)
	defer g.pool.Put(sc)
	sc.begin(g)
	f := &sc.fromSrc
	// The exported signature carries no context; nothing here can be
	// cancelled.
	_ = g.distancesWithin(context.TODO(), sc, f, src, limit)
	for _, v := range f.settled {
		dist[v] = f.dist[v]
	}
	return dist, len(f.settled)
}
