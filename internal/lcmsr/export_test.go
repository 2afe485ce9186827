package lcmsr

import (
	"repro/internal/geo"
	"repro/internal/network"
	"repro/internal/poi"
	"repro/internal/vocab"
)

// VertexScores is VertexScoresWith with every segment a snap candidate:
// nearest by brute force.
func VertexScores(net *network.Network, corpus *poi.Corpus, query vocab.Set) []float64 {
	all := allSegments(net)
	return VertexScoresWith(net, corpus, query, func(geo.Point) []network.SegmentID {
		return all
	})
}

func allSegments(net *network.Network) []network.SegmentID {
	out := make([]network.SegmentID, net.NumSegments())
	for i := range out {
		out[i] = network.SegmentID(i)
	}
	return out
}

// Connected reports whether the region's segments form one connected
// component together with its vertices.
func (r *Region) Connected(net *network.Network) bool {
	if len(r.Vertices) == 0 {
		return false
	}
	if len(r.Segments) == 0 {
		return len(r.Vertices) == 1
	}
	adjLocal := map[network.VertexID][]network.VertexID{}
	for _, sid := range r.Segments {
		seg := net.Segment(sid)
		adjLocal[seg.From] = append(adjLocal[seg.From], seg.To)
		adjLocal[seg.To] = append(adjLocal[seg.To], seg.From)
	}
	seen := map[network.VertexID]bool{}
	stack := []network.VertexID{r.Vertices[0]}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[v] {
			continue
		}
		seen[v] = true
		stack = append(stack, adjLocal[v]...)
	}
	for _, v := range r.Vertices {
		if !seen[v] {
			return false
		}
	}
	return true
}
