// Package lcmsr implements the closest prior work the paper argues
// against: the length-constrained maximum-sum region query of Cao et al.
// (PVLDB 2014, the paper's reference [7]). Given a road network whose
// vertices carry scores (relevant POIs snapped to their nearest vertex,
// the assumption the paper criticizes) and a total-length budget, LCMSR
// asks for a connected subgraph maximizing the summed score of covered
// vertices. The problem is NP-hard; like [7] we use a polynomial
// approximation — greedy expansion with multiple restarts.
//
// The package exists so the repository can demonstrate the paper's
// critique empirically (Section 1): the returned region is a single
// connected blob that favors POI quantity over density, drags in
// low-value filler edges to keep connectivity, and cannot surface
// several disjoint interesting streets at once — which is precisely what
// the k-SOI ranking does instead.
package lcmsr

import (
	"container/heap"
	"errors"
	"fmt"
	"sort"

	"repro/internal/geo"
	"repro/internal/network"
	"repro/internal/poi"
	"repro/internal/vocab"
)

// Region is a connected subgraph returned by the query.
type Region struct {
	// Segments are the network segments included in the region.
	Segments []network.SegmentID
	// Vertices are the covered vertices (score is collected per vertex).
	Vertices []network.VertexID
	// Score is the summed score of the covered vertices.
	Score float64
	// Length is the summed length of the included segments.
	Length float64
}

// Streets returns the distinct streets the region's segments belong to.
func (r *Region) Streets(net *network.Network) []network.StreetID {
	seen := map[network.StreetID]bool{}
	var out []network.StreetID
	for _, sid := range r.Segments {
		st := net.Segment(sid).Street
		if !seen[st] {
			seen[st] = true
			out = append(out, st)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// VertexScoresWith snaps every query-relevant POI to its nearest network
// vertex (the modeling assumption of [7] that the paper criticizes as
// unrealistic) and returns the per-vertex score vector. For each relevant
// POI the candidates generator returns the segments to consider as its
// snap target (e.g. the segments near the POI's grid cell). A POI with no
// candidates is skipped, mirroring [7]'s silent restriction to POIs on
// the network.
func VertexScoresWith(net *network.Network, corpus *poi.Corpus, query vocab.Set, candidates func(geo.Point) []network.SegmentID) []float64 {
	scores := make([]float64, net.NumVertices())
	for _, p := range corpus.All() {
		if !p.Keywords.Intersects(query) {
			continue
		}
		cands := candidates(p.Loc)
		bestSeg := network.SegmentID(0)
		bestD := 0.0
		found := false
		for _, sid := range cands {
			d := net.Segment(sid).Geom.DistToPointSq(p.Loc)
			if !found || d < bestD {
				bestSeg = sid
				bestD = d
				found = true
			}
		}
		if !found {
			continue
		}
		seg := net.Segment(bestSeg)
		// Snap to the closer endpoint of the nearest segment.
		if p.Loc.DistSq(net.Vertex(seg.From)) <= p.Loc.DistSq(net.Vertex(seg.To)) {
			scores[seg.From] += p.Weight
		} else {
			scores[seg.To] += p.Weight
		}
	}
	return scores
}

// adjacency is the undirected segment adjacency of the network.
type adjacency struct {
	edges [][]adjEdge
}

type adjEdge struct {
	to  network.VertexID
	seg network.SegmentID
	w   float64
}

// connectorSeg marks a pedestrian connector between two near-miss
// vertices rather than a real street segment.
const connectorSeg = network.SegmentID(^uint32(0))

func buildAdjacency(net *network.Network, snap float64) *adjacency {
	a := &adjacency{edges: make([][]adjEdge, net.NumVertices())}
	for _, seg := range net.Segments() {
		a.edges[seg.From] = append(a.edges[seg.From], adjEdge{to: seg.To, seg: seg.ID, w: seg.Length()})
		a.edges[seg.To] = append(a.edges[seg.To], adjEdge{to: seg.From, seg: seg.ID, w: seg.Length()})
	}
	// Join vertices closer than snap with connector edges, so streets
	// that cross without sharing a vertex are mutually reachable (the
	// connected-network assumption of [7]).
	net.VertexPairsWithin(snap, func(u, v network.VertexID, d float64) {
		a.edges[u] = append(a.edges[u], adjEdge{to: v, seg: connectorSeg, w: d})
		a.edges[v] = append(a.edges[v], adjEdge{to: u, seg: connectorSeg, w: d})
	})
	return a
}

// frontierEdge is a candidate expansion ordered by score gain per length.
type frontierEdge struct {
	edge adjEdge
	gain float64 // score of the new vertex
}

type frontier []frontierEdge

func (f frontier) Len() int { return len(f) }
func (f frontier) Less(i, j int) bool {
	// Maximize gain per unit length; zero-length edges are free wins.
	li, lj := f[i].edge.w, f[j].edge.w
	if li == 0 || lj == 0 {
		return li < lj
	}
	return f[i].gain/li > f[j].gain/lj
}
func (f frontier) Swap(i, j int)       { f[i], f[j] = f[j], f[i] }
func (f *frontier) Push(x interface{}) { *f = append(*f, x.(frontierEdge)) }
func (f *frontier) Pop() interface{} {
	old := *f
	n := len(old)
	e := old[n-1]
	*f = old[:n-1]
	return e
}

// Options control the approximation.
type Options struct {
	// Restarts is the number of top-scoring seed vertices to expand from
	// (the best region over all restarts is returned); defaults to 8.
	Restarts int
	// SnapRadius, when positive, joins vertices closer than this with
	// pedestrian connector edges so the region can expand across streets
	// that cross without a shared vertex.
	SnapRadius float64
}

// Query runs the greedy LCMSR approximation: from each seed vertex, grow
// a connected subgraph by repeatedly taking the frontier edge with the
// best score-per-length ratio while the length budget allows, then
// return the best region found.
func Query(net *network.Network, scores []float64, budget float64, opts Options) (Region, error) {
	if len(scores) != net.NumVertices() {
		return Region{}, fmt.Errorf("lcmsr: %d scores for %d vertices", len(scores), net.NumVertices())
	}
	if budget <= 0 {
		return Region{}, errors.New("lcmsr: non-positive budget")
	}
	restarts := opts.Restarts
	if restarts <= 0 {
		restarts = 8
	}
	// Seeds: the highest-scoring vertices.
	seeds := make([]network.VertexID, 0, restarts)
	order := make([]int, len(scores))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		if scores[order[i]] != scores[order[j]] {
			return scores[order[i]] > scores[order[j]]
		}
		return order[i] < order[j]
	})
	for i := 0; i < len(order) && len(seeds) < restarts; i++ {
		if scores[order[i]] <= 0 {
			break
		}
		seeds = append(seeds, network.VertexID(order[i]))
	}
	if len(seeds) == 0 {
		return Region{}, errors.New("lcmsr: no vertex carries a positive score")
	}
	adj := buildAdjacency(net, opts.SnapRadius)
	var best Region
	for _, seed := range seeds {
		r := expand(net, adj, scores, seed, budget)
		if r.Score > best.Score || (r.Score == best.Score && r.Length < best.Length) {
			best = r
		}
	}
	return best, nil
}

func expand(net *network.Network, adj *adjacency, scores []float64, seed network.VertexID, budget float64) Region {
	inRegion := map[network.VertexID]bool{seed: true}
	segUsed := map[network.SegmentID]bool{}
	r := Region{Vertices: []network.VertexID{seed}, Score: scores[seed]}
	var f frontier
	pushFrontier := func(v network.VertexID) {
		for _, e := range adj.edges[v] {
			used := e.seg != connectorSeg && segUsed[e.seg]
			if !inRegion[e.to] && !used {
				heap.Push(&f, frontierEdge{edge: e, gain: scores[e.to]})
			}
		}
	}
	pushFrontier(seed)
	for f.Len() > 0 {
		fe := heap.Pop(&f).(frontierEdge)
		if inRegion[fe.edge.to] || (fe.edge.seg != connectorSeg && segUsed[fe.edge.seg]) {
			continue // stale entry
		}
		if r.Length+fe.edge.w > budget {
			continue // this edge no longer fits; cheaper ones may
		}
		if fe.edge.seg != connectorSeg {
			segUsed[fe.edge.seg] = true
		}
		inRegion[fe.edge.to] = true
		if fe.edge.seg != connectorSeg {
			r.Segments = append(r.Segments, fe.edge.seg)
		}
		r.Vertices = append(r.Vertices, fe.edge.to)
		r.Score += scores[fe.edge.to]
		r.Length += fe.edge.w
		pushFrontier(fe.edge.to)
	}
	sort.Slice(r.Segments, func(i, j int) bool { return r.Segments[i] < r.Segments[j] })
	sort.Slice(r.Vertices, func(i, j int) bool { return r.Vertices[i] < r.Vertices[j] })
	return r
}
