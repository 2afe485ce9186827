package traj

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/faults"
	"repro/internal/network"
)

// RouteQuery asks for the k most interesting loopless routes between two
// network vertices under a walking-length budget. The score of a route
// blends accumulated segment interest with travel cost:
//
//	score = Σ interest(ℓ) over traversed segments − α · length
//
// α = 0 ranks purely by collected interest; larger α penalizes detours.
type RouteQuery struct {
	Src, Dst network.VertexID
	// K is the number of routes to return.
	K int
	// Budget caps the route's total walking length (segments plus
	// connectors), in coordinate units.
	Budget float64
	// Alpha is the travel-cost weight α (per unit length).
	Alpha float64
}

// Validate reports whether k, the budget and α are well formed;
// TopKRoutes also refuses vertices outside the graph.
func (q RouteQuery) Validate() error {
	if q.K <= 0 {
		return fmt.Errorf("traj: non-positive k %d", q.K)
	}
	if math.IsNaN(q.Budget) || math.IsInf(q.Budget, 0) {
		return fmt.Errorf("traj: non-finite budget %v", q.Budget)
	}
	if q.Budget <= 0 {
		return fmt.Errorf("traj: non-positive budget %v", q.Budget)
	}
	if math.IsNaN(q.Alpha) || math.IsInf(q.Alpha, 0) {
		return fmt.Errorf("traj: non-finite alpha %v", q.Alpha)
	}
	if q.Alpha < 0 {
		return fmt.Errorf("traj: negative alpha %v", q.Alpha)
	}
	return nil
}

// Route is one ranked answer of a k-routes query: a vertex-simple path
// from source to destination.
type Route struct {
	// Vertices is the walked vertex sequence, source first.
	Vertices []network.VertexID
	// Segments are the traversed street segments in walk order
	// (connector hops contribute length but no segment).
	Segments []network.SegmentID
	// Length is the total walked length including connectors.
	Length float64
	// Interest is the summed segment interest collected along the path,
	// accumulated in traversal order.
	Interest float64
	// Score is Interest − α·Length, the ranking key.
	Score float64
}

// SearchStats reports the work one route search performed.
type SearchStats struct {
	// Expansions counts partial paths popped from the frontier.
	Expansions int
	// Generated counts partial paths pushed onto the frontier.
	Generated int
	// PrunedBudget counts extensions discarded because no completion
	// within the length budget is possible (exact overrun, or the
	// Dijkstra remaining-distance bound).
	PrunedBudget int
	// PrunedBound counts partials discarded because their admissible
	// score upper bound fell below the current kth-best completion.
	PrunedBound int
	// Completed counts source→destination paths found within budget.
	Completed int
	// Settled counts the vertices the two budget-bounded Dijkstra runs
	// settled (from the destination, then from the source): the size of
	// the budget ball the query paid for.
	Settled int
	// SegmentsFolded counts the budget-feasible segments whose interest
	// was evaluated.
	SegmentsFolded int
}

// SearchOptions tunes the search's resource guards.
type SearchOptions struct {
	// MaxExpansions bounds frontier pops before the search gives up with
	// ErrSearchBudget; 0 means DefaultMaxExpansions.
	MaxExpansions int
}

// DefaultMaxExpansions is the expansion guard used when SearchOptions
// leaves it zero — far above any harness world, low enough to bound a
// pathological serving query.
const DefaultMaxExpansions = 500_000

// ErrSearchBudget is returned when the search exceeds its expansion
// guard before the frontier drains.
var ErrSearchBudget = errors.New("traj: route search exceeded its expansion budget")

// ctxPollInterval is how many units of work — settled vertices, folded
// segments, frontier pops, trace points — pass between context polls.
const ctxPollInterval = 64

// boundSlack is the relative slack the bound-pruning test concedes to
// floating point: a partial is pruned only when its upper bound is below
// the kth-best score by more than this relative margin, so last-bit
// rounding in the (admissible) bound can never eliminate a true top-k
// path. Pruning therefore only removes strict losers, and the final
// canonical sort makes the answer independent of pruning decisions.
const boundSlack = 1e-9

func lessVertSeq(a, b []network.VertexID) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

func lessSegSeq(a, b []network.SegmentID) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// SortRoutes puts routes in the canonical answer order: score
// descending, then length ascending, then lexicographic vertex sequence,
// then lexicographic segment sequence (parallel edges). Both the pruned
// search and the brute-force oracle finish with this sort, so their
// answers are comparable rank by rank.
func SortRoutes(rs []Route) {
	sortRoutesBy(rs, func(a, b Route) bool {
		if a.Score != b.Score {
			return a.Score > b.Score
		}
		if a.Length != b.Length {
			return a.Length < b.Length
		}
		if v := lessVertSeq(a.Vertices, b.Vertices); v || lessVertSeq(b.Vertices, a.Vertices) {
			return v
		}
		return lessSegSeq(a.Segments, b.Segments)
	})
}

func sortRoutesBy(rs []Route, less func(a, b Route) bool) {
	// Insertion sort: route lists are small (k plus survivors) and the
	// comparator is total, so stability concerns do not arise.
	for i := 1; i < len(rs); i++ {
		for j := i; j > 0 && less(rs[j], rs[j-1]); j-- {
			rs[j], rs[j-1] = rs[j-1], rs[j]
		}
	}
}

// TopKRoutes runs the best-first k most interesting routes search. The
// frontier holds vertex-simple partial paths ordered by an admissible
// score upper bound — collected interest, plus the uncollected positive
// interest still collectible within the remaining budget, minus α times
// the best-case completed length (newLen + distToDst) — so the bound
// keeps tightening, and therefore pruning, even at α = 0. Partials are
// pruned when they cannot reach the destination within the budget
// (Dijkstra remaining-distance bound) or when their upper bound falls
// below the kth-best completed score by more than a float-safety
// margin. Per-segment interests are only evaluated for segments some
// budget-feasible path can traverse. Interest and length are accumulated
// strictly in traversal order, so a route's score is bit-identical to
// the brute-force oracle's for the same path, and the canonical final
// sort makes the ranking independent of exploration order.
//
// The search pays for the trip, not the city. Both Dijkstra runs stop at
// the slack-extended budget (distancesWithin), the feasible-segment loop
// walks only the vertices the source run settled, and all per-query
// state lives in a pooled scratch (searchScratch). Bounding the runs
// changes no decision: a distance within the bound is the float the
// unbounded run computes, and a distance beyond it only ever appears in
// a "> budgetCap" comparison, where +Inf decides the same way, or as the
// losing arm of min(distToDst[u], distToDst[v]) next to a winner the
// feasibility test has already shown to be within the bound.
//
// A source/destination pair that is unreachable, or farther apart than
// the budget, yields an empty answer, not an error. The search observes
// ctx at a cooperative polling interval, from the first settled vertex
// on.
func TopKRoutes(ctx context.Context, g *Graph, interest InterestFunc, q RouteQuery, opt SearchOptions) ([]Route, SearchStats, error) {
	if err := q.Validate(); err != nil {
		return nil, SearchStats{}, err
	}
	if int(q.Src) >= g.NumVertices() || int(q.Dst) >= g.NumVertices() {
		return nil, SearchStats{}, fmt.Errorf("traj: vertex out of range (src=%d dst=%d of %d)", q.Src, q.Dst, g.NumVertices())
	}
	sc := g.pool.Get().(*searchScratch)
	defer g.pool.Put(sc)
	return sc.topKRoutes(ctx, g, interest, q, opt)
}

// topKRoutes is TopKRoutes over a caller-held scratch and a validated
// query.
func (sc *searchScratch) topKRoutes(ctx context.Context, g *Graph, interest InterestFunc, q RouteQuery, opt SearchOptions) ([]Route, SearchStats, error) {
	var st SearchStats
	maxExp := opt.MaxExpansions
	if maxExp <= 0 {
		maxExp = DefaultMaxExpansions
	}
	sc.begin(g)
	budgetCap := q.Budget * (1 + boundSlack)

	distToDst, distFromSrc := &sc.toDst, &sc.fromSrc
	err := g.distancesWithin(ctx, sc, distToDst, q.Dst, budgetCap)
	st.Settled = len(distToDst.settled)
	if err != nil {
		return nil, st, err
	}
	if math.IsInf(distToDst.at(q.Src), 1) {
		return []Route{}, st, nil
	}
	err = g.distancesWithin(ctx, sc, distFromSrc, q.Src, budgetCap)
	st.Settled += len(distFromSrc.settled)
	if err != nil {
		return nil, st, err
	}

	// Exact per-segment interests, computed once — but only for segments
	// some budget-feasible path can traverse (a directed edge u→v with
	// distFromSrc[u] + len + distToDst[v] within the slack-extended
	// budget). Every other segment is unreachable by the search, so its
	// interest fold is never needed and contributes nothing to any bound.
	// Walking the settled vertices in ascending id visits the feasible
	// segments in the order a scan of the whole vertex table would.
	//
	// needs/prefixPos support the per-partial collectible bound: a
	// completion suffix that traverses segment s and then reaches the
	// destination is at least need(s) = len(s) + min(distToDst over s's
	// endpoints) long, so a partial with remaining budget r can only
	// still collect segments with need ≤ r. Sorting feasible positive
	// interests by need with a prefix sum turns "positive interest still
	// collectible within r" into one binary search.
	slices.Sort(distFromSrc.settled)
	for _, u := range distFromSrc.settled {
		du := distFromSrc.dist[u]
		for _, e := range g.Adjacent(u) {
			if e.Seg == ConnectorSeg {
				continue
			}
			if du+e.Len+distToDst.at(e.To) > budgetCap {
				continue
			}
			if sc.segStamp[e.Seg] == sc.epoch {
				continue
			}
			if st.SegmentsFolded%ctxPollInterval == 0 {
				if err := ctx.Err(); err != nil {
					return nil, st, err
				}
			}
			sc.segStamp[e.Seg] = sc.epoch
			iv := interest(network.SegmentID(e.Seg))
			st.SegmentsFolded++
			sc.interests[e.Seg] = iv
			if iv > 0 {
				sc.entries = append(sc.entries, needEntry{
					need: e.Len + math.Min(distToDst.at(u), distToDst.at(e.To)),
					pos:  iv,
				})
			}
		}
	}
	slices.SortStableFunc(sc.entries, func(a, b needEntry) int { return cmp.Compare(a.need, b.need) })
	needs := grow(sc.needs, len(sc.entries))
	prefixPos := grow(sc.prefixPos, len(sc.entries)+1)
	prefixPos[0] = 0
	for i, en := range sc.entries {
		needs[i] = en.need
		prefixPos[i+1] = prefixPos[i] + en.pos
	}
	sc.needs, sc.prefixPos = needs, prefixPos
	// posTotal is the positive interest collectible over the whole
	// budget: the sum of every feasible positive interest.
	posTotal := prefixPos[len(needs)]

	// threshold is the kth-best completion score once k routes completed.
	threshold := math.Inf(-1)

	sc.arena = append(sc.arena, partial{
		parent: -1,
		vert:   q.Src,
		seg:    ConnectorSeg,
		depth:  1,
		remPos: posTotal,
		ub:     posTotal - q.Alpha*distToDst.dist[q.Src],
	})
	sc.pushFrontier(0)

	for len(sc.frontier) > 0 {
		if st.Expansions%ctxPollInterval == 0 {
			if err := ctx.Err(); err != nil {
				return nil, st, err
			}
		}
		if err := faults.InjectCtx(ctx, "traj.search"); err != nil {
			return nil, st, err
		}
		if st.Expansions >= maxExp {
			return nil, st, fmt.Errorf("%w (%d expansions)", ErrSearchBudget, st.Expansions)
		}
		pi := sc.popFrontier()
		p := sc.arena[pi] // a copy: the arena may move as children are appended
		st.Expansions++
		if belowThreshold(p.ub, threshold) {
			st.PrunedBound++
			continue
		}
		if p.vert == q.Dst {
			// A vertex-simple path cannot revisit the destination, so
			// this partial is exactly one completed route.
			score := p.interest - q.Alpha*p.length
			sc.complete(pi, score)
			st.Completed++
			threshold = sc.offerScore(score, q.K)
			continue
		}
		for _, e := range g.Adjacent(p.vert) {
			if sc.visits(pi, e.To) {
				continue // loopless: vertex-simple paths only
			}
			newLen := p.length + e.Len
			if newLen > q.Budget {
				st.PrunedBudget++
				continue // the exact budget rule, identical to the oracle
			}
			toGo := distToDst.at(e.To)
			if newLen+toGo > budgetCap {
				st.PrunedBudget++
				continue // cannot reach dst within budget (slack-guarded)
			}
			child := partial{
				parent:   pi,
				vert:     e.To,
				seg:      e.Seg,
				depth:    p.depth + 1,
				nsegs:    p.nsegs,
				length:   newLen,
				interest: p.interest,
				remPos:   p.remPos,
			}
			if e.Seg != ConnectorSeg {
				child.nsegs++
				if sc.segStamp[e.Seg] == sc.epoch {
					iv := sc.interests[e.Seg]
					child.interest += iv
					if iv > 0 {
						child.remPos -= iv
					}
				}
			}
			// Admissible bound: any completion collects at most the
			// uncollected positive interest (remPos) that is also still
			// reachable within the remaining budget (reachPos), and walks
			// at least distToDst further. Both restrictions only drop
			// provably uncollectible interest, and the slack-guarded
			// threshold test below absorbs float rounding, so no true
			// top-k path is ever pruned.
			rem := child.remPos
			if rp := reachPos(needs, prefixPos, budgetCap-newLen); rp < rem {
				rem = rp
			}
			child.ub = child.interest + rem - q.Alpha*(newLen+toGo)
			if belowThreshold(child.ub, threshold) {
				st.PrunedBound++
				continue
			}
			sc.arena = append(sc.arena, child)
			sc.pushFrontier(int32(len(sc.arena) - 1))
			st.Generated++
		}
	}

	SortRoutes(sc.completions)
	return sc.answer(q.K), st, nil
}

// reachPos bounds the positive interest collectible with remaining
// budget r: the prefix sum over the needs that fit.
func reachPos(needs, prefixPos []float64, r float64) float64 {
	lo, hi := 0, len(needs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if needs[mid] > r {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return prefixPos[lo]
}

// answer copies the k best of the sorted completions out of the pooled
// arenas: the routes the caller keeps share one vertex and one segment
// backing array, each route's slice capped at its own end.
func (sc *searchScratch) answer(k int) []Route {
	best := sc.completions
	if len(best) > k {
		best = best[:k]
	}
	nv, ns := 0, 0
	for _, r := range best {
		nv += len(r.Vertices)
		ns += len(r.Segments)
	}
	out := make([]Route, len(best))
	verts := make([]network.VertexID, 0, nv)
	segs := make([]network.SegmentID, 0, ns)
	for i, r := range best {
		v0, s0 := len(verts), len(segs)
		verts = append(verts, r.Vertices...)
		segs = append(segs, r.Segments...)
		r.Vertices = verts[v0:len(verts):len(verts)]
		r.Segments = segs[s0:len(segs):len(segs)]
		out[i] = r
	}
	return out
}

// belowThreshold reports whether an admissible upper bound is so far
// under the kth-best score that the partial can be discarded even after
// conceding a relative float-rounding margin.
func belowThreshold(ub, threshold float64) bool {
	if math.IsInf(threshold, -1) {
		return false
	}
	slack := boundSlack * (math.Abs(ub) + math.Abs(threshold) + 1)
	return ub+slack < threshold
}
