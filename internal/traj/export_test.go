package traj

import (
	"context"
	"math"

	"repro/internal/network"
)

// DistancesWithin exposes the budget-bounded Dijkstra to the external
// test package as a dense field (+Inf where the run did not reach),
// together with the number of vertices it settled.
func (g *Graph) DistancesWithin(src network.VertexID, limit float64) ([]float64, int) {
	return g.denseDistances(src, limit)
}

// BoundSlack exposes the search's float-safety margin to the reference.
const BoundSlack = boundSlack

// ShortestPath exposes what the tour planner asks of the graph — one
// unbounded distancesWithin run from src and the path pathTo rebuilds
// from its field — to the external test package; ok is false when dst is
// not connected to src.
func (g *Graph) ShortestPath(src, dst network.VertexID) (_ Path, ok bool) {
	sc := g.pool.Get().(*searchScratch)
	defer g.pool.Put(sc)
	sc.begin(g)
	f := &sc.fromSrc
	if err := g.distancesWithin(context.Background(), sc, f, src, math.Inf(1)); err != nil || math.IsInf(f.at(dst), 1) {
		return Path{}, false
	}
	return g.pathTo(f, src, dst), true
}
