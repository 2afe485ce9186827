package traj

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/faults"
	"repro/internal/network"
)

// Path is a shortest path between two vertices.
type Path struct {
	Vertices []network.VertexID
	// Segments are the traversed street segments in walk order
	// (connector hops contribute length but no segment).
	Segments []network.SegmentID
	Length   float64
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
	// NewGraph) and re-plan.
	Unreached []Unreached
}

// Candidate pairs a street with its interest score; the k-SOI answer in
// planner form.
type Candidate struct {
	Street   network.StreetID
	Interest float64
}

// ErrBadBudget is returned, wrapped with the value, for a tour length
// budget that is not positive and finite: NaN passes every "≤ 0" test and
// +Inf bounds nothing, so either would plan with no budget at all.
var ErrBadBudget = errors.New("traj: tour budget is not positive and finite")

// CheckBudget returns ErrBadBudget unless budget is a length Recommend
// accepts, so a caller can refuse a tour before it pays for the k-SOI
// answer the tour would plan over.
func CheckBudget(budget float64) error {
	if budget > 0 && !math.IsInf(budget, 1) {
		return nil
	}
	return fmt.Errorf("%w: %v", ErrBadBudget, budget)
}

// Recommend implements the paper's stated future work, "to provide route
// recommendations based on the discovered streets of interest" (Section
// 6): given the ranked streets of a k-SOI answer it plans a walking tour
// over the graph that visits as many of them as the length budget allows.
// It starts at the most interesting street and greedily appends the
// street with the highest interest-per-detour ratio until the budget is
// exhausted. Unreachable candidates are skipped. At least one stop is
// always returned when any candidate exists, even if its street alone
// exceeds the budget. Every shortest-path question is one budget-bounded
// distancesWithin run — the route query's search — on the graph's pooled
// scratch, observing ctx from the first settled vertex on.
func Recommend(ctx context.Context, g *Graph, candidates []Candidate, budget float64) (Tour, error) {
	if len(candidates) == 0 {
		return Tour{}, errors.New("traj: no candidate streets")
	}
	if err := CheckBudget(budget); err != nil {
		return Tour{}, err
	}
	net := g.net
	// Pick the start: the highest-interest candidate.
	start := 0
	for i, c := range candidates {
		if c.Interest > candidates[start].Interest {
			start = i
		}
	}
	visited := map[int]bool{start: true}
	startStreet := net.Street(candidates[start].Street)
	tour := Tour{
		Stops: []Stop{{
			Street:   candidates[start].Street,
			Name:     startStreet.Name,
			Interest: candidates[start].Interest,
		}},
		Length:   startStreet.Length(),
		Interest: candidates[start].Interest,
	}
	sc := g.pool.Get().(*searchScratch)
	defer g.pool.Put(sc)
	dist := &sc.fromSrc
	// search runs one Dijkstra from the tour's current position, never
	// past limit, behind the planner's fault-injection site.
	search := func(cur network.VertexID, limit float64) error {
		if err := faults.InjectCtx(ctx, "traj.tour"); err != nil {
			return err
		}
		sc.begin(g)
		return g.distancesWithin(ctx, sc, dist, cur, limit)
	}
	// Current position: the end vertex of the last visited street.
	cur := streetEnd(net, candidates[start].Street)
	for len(visited) < len(candidates) {
		// No stop farther than what is left of the budget can be
		// appended. The slack keeps every distance the budget test below
		// could still accept inside the run: a vertex beyond the limit
		// is beyond the budget by more than rounding, and reads as +Inf.
		if err := search(cur, budget*(1+boundSlack)-tour.Length); err != nil {
			return Tour{}, err
		}
		bestIdx := -1
		var bestRatio float64
		for i, c := range candidates {
			if visited[i] {
				continue
			}
			d := dist.at(streetStart(net, c.Street))
			if math.IsInf(d, 1) {
				continue
			}
			cost := d + net.Street(c.Street).Length()
			if tour.Length+cost > budget {
				continue
			}
			ratio := c.Interest / (cost + 1e-12)
			if bestIdx == -1 || ratio > bestRatio {
				bestIdx = i
				bestRatio = ratio
			}
		}
		if bestIdx == -1 {
			break // nothing reachable fits the budget
		}
		c := candidates[bestIdx]
		st := net.Street(c.Street)
		approach := g.pathTo(dist, cur, streetStart(net, c.Street))
		visited[bestIdx] = true
		tour.Stops = append(tour.Stops, Stop{
			Street:   c.Street,
			Name:     st.Name,
			Interest: c.Interest,
			Approach: approach,
		})
		tour.Length += approach.Length + st.Length()
		tour.Interest += c.Interest
		cur = streetEnd(net, c.Street)
	}
	if len(visited) < len(candidates) {
		// Classify the leftovers: reachability is a component property of
		// the undirected graph, so one unbounded distance pass from the
		// final position settles it for every remaining candidate.
		if err := search(cur, math.Inf(1)); err != nil {
			return Tour{}, err
		}
		for i, c := range candidates {
			if visited[i] {
				continue
			}
			if math.IsInf(dist.at(streetStart(net, c.Street)), 1) {
				tour.Unreached = append(tour.Unreached, Unreached{
					Street:   c.Street,
					Name:     net.Street(c.Street).Name,
					Interest: c.Interest,
				})
			}
		}
	}
	return tour, nil
}

// pathTo rebuilds a shortest path from src, the source of the run that
// filled f, to a vertex the run reached, by walking the distance field
// backwards: the predecessor of v is its first neighbour u in canonical
// adjacency order — lowest vertex, then lowest segment — that was settled
// before v with dist[u] + len == dist[v]. The vertex whose relaxation
// gave v its distance is such a neighbour, so one always exists, and
// settle order strictly decreases along the walk, so it ends at src. The
// relaxation loop records no predecessors for this.
func (g *Graph) pathTo(f *distField, src, dst network.VertexID) Path {
	p := Path{Vertices: []network.VertexID{dst}, Length: f.dist[dst]}
	for v := dst; v != src; {
		adj := g.Adjacent(v)
		i := slices.IndexFunc(adj, func(e Edge) bool {
			return f.stamp[e.To] == f.epoch && f.dist[e.To]+e.Len == f.dist[v] && f.settledBefore(e.To, v)
		})
		if i < 0 {
			panic(fmt.Sprintf("traj: vertex %d was reached through none of its neighbours", v))
		}
		e := adj[i]
		if e.Seg != ConnectorSeg {
			p.Segments = append(p.Segments, network.SegmentID(e.Seg))
		}
		p.Vertices = append(p.Vertices, e.To)
		v = e.To
	}
	slices.Reverse(p.Vertices)
	slices.Reverse(p.Segments)
	return p
}

// settledBefore reports whether the run settled u before v, both reached.
// Distances never decrease along the settle order, so only an exact tie —
// a zero-length edge, or one too short to move the sum — has to look the
// two up in it.
func (f *distField) settledBefore(u, v network.VertexID) bool {
	if f.dist[u] != f.dist[v] || u == v {
		return f.dist[u] < f.dist[v]
	}
	for _, w := range f.settled {
		if w == u || w == v {
			return w == u
		}
	}
	return false
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
