package traj

import "repro/internal/network"

// DistancesWithin exposes the budget-bounded Dijkstra to the external
// test package as a dense field (+Inf where the run did not reach),
// together with the number of vertices it settled.
func (g *Graph) DistancesWithin(src network.VertexID, limit float64) ([]float64, int) {
	return g.denseDistances(src, limit)
}

// BoundSlack exposes the search's float-safety margin to the reference.
const BoundSlack = boundSlack
