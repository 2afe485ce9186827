package oracle

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/network"
	"repro/internal/poi"
	"repro/internal/traj"
	"repro/internal/vocab"
)

// This file is the brute-force reference for the trajectory query
// family: exhaustive simple-path enumeration for the k most interesting
// routes and a full-scan corridor computation for trajectory-aware SOI.
// The oracle builds its own adjacency (an O(V²) pairwise connector scan,
// so the production graph's grid bucketing is itself under test), runs a
// plain DFS whose only pruning is provable budget infeasibility — never
// a score bound — and computes every per-segment interest by the
// exhaustive pairwise scan. Both sides accumulate path sums in traversal
// order and finish with the same canonical sort, so answers must agree
// bit for bit.

// RouteCase is one derived route query of the trajectory matrix.
type RouteCase struct {
	Src, Dst network.VertexID
	Keywords []string
	Epsilon  float64
	K        int
	Alpha    float64
	Budget   float64
}

// Label names the case in divergence reports.
func (c RouteCase) Label() string {
	return fmt.Sprintf("src=%d dst=%d α=%g budget=%g", c.Src, c.Dst, c.Alpha, c.Budget)
}

// TrajCase is one derived trajectory-SOI query of the matrix.
type TrajCase struct {
	Keywords []string
	Epsilon  float64
	K        int
	Radius   float64
}

// trajAlphas are the travel-cost weights the route matrix sweeps: pure
// interest collection, and a penalty sized so α·length is comparable to
// segment interests on the Tiny extent.
var trajAlphas = []float64{0, 5e8}

// trajRadii are the map-matching snap radii the trajectory matrix
// sweeps, below and above the trace generator's jitter scale.
var trajRadii = []float64{0.0001, 0.0003}

// oracleMaxDFSSteps bounds the exhaustive route enumeration. Hitting it
// is a harness-sizing bug (the derived cases are meant to stay small),
// reported as a loud error rather than a divergence.
const oracleMaxDFSSteps = 5_000_000

// routeCaseCap bounds the budget-feasible path space of a derived route
// case, measured in DFS steps: candidate cases whose exhaustive
// enumeration would exceed it are skipped. The gate keeps both the
// oracle's enumeration and the harness wall-clock small, and it is
// computed before either implementation runs, so skipping is
// deterministic and cannot mask a divergence.
const routeCaseCap = 30_000

// pathSpaceSteps counts the steps of the same budget-feasibility-pruned
// simple-path DFS the oracle runs (lengths only, no scores), giving up
// once the count passes cap.
func pathSpaceSteps(g *traj.Graph, src, dst network.VertexID, budget float64, cap int) int {
	distToDst := g.Distances(dst)
	if math.IsInf(distToDst[src], 1) {
		return 0
	}
	budgetCap := budget * (1 + 1e-9)
	steps := 0
	verts := []network.VertexID{src}
	var dfs func(length float64)
	dfs = func(length float64) {
		steps++
		if steps > cap {
			return
		}
		at := verts[len(verts)-1]
		if at == dst {
			return
		}
		for _, e := range g.Adjacent(at) {
			revisit := false
			for _, v := range verts {
				if v == e.To {
					revisit = true
					break
				}
			}
			if revisit {
				continue
			}
			newLen := length + e.Len
			if newLen > budget || newLen+distToDst[e.To] > budgetCap {
				continue
			}
			verts = append(verts, e.To)
			dfs(newLen)
			verts = verts[:len(verts)-1]
			if steps > cap {
				return
			}
		}
	}
	dfs(0)
	return steps
}

// RouteCases derives the deterministic route-query grid for one seed
// over a built trajectory graph. Destinations are drawn from a shortest-
// path distance band around each source so the enumerable path space
// stays small; unreachable, degenerate or combinatorially oversized
// picks are skipped. Budgets are 1.2× the shortest-path distance,
// leaving room for detours.
func RouteCases(g *traj.Graph, seed int64) []RouteCase {
	nv := g.NumVertices()
	if nv == 0 {
		return nil
	}
	st := g.Network().Stats()
	if st.NumSegments == 0 {
		return nil
	}
	meanLen := st.TotalLen / float64(st.NumSegments)
	var out []RouteCase
	for i := 0; len(out) < 4 && i < 12; i++ {
		src := network.VertexID((seed7(seed)*31 + int64(i)*97) % int64(nv))
		dist := g.Distances(src)
		// Candidate destinations: within a few segment lengths, sorted by
		// (distance, id) so the pick is deterministic.
		type cand struct {
			v network.VertexID
			d float64
		}
		var cands []cand
		for v := 0; v < nv; v++ {
			d := dist[v]
			if d > 1.5*meanLen && d < 5*meanLen {
				cands = append(cands, cand{network.VertexID(v), d})
			}
		}
		if len(cands) == 0 {
			continue
		}
		sort.Slice(cands, func(a, b int) bool {
			if cands[a].d != cands[b].d {
				return cands[a].d < cands[b].d
			}
			return cands[a].v < cands[b].v
		})
		pick := cands[int(seed7(seed)+int64(i)*13)%len(cands)]
		budget := 1.2 * pick.d
		if pathSpaceSteps(g, src, pick.v, budget, routeCaseCap) > routeCaseCap {
			continue
		}
		n := len(out)
		psi := 1 + n%2
		kws := make([]string, 0, psi)
		for j := 0; j < psi; j++ {
			kws = append(kws, matrixVocab[int(seed7(seed)+int64(n*5+j*3))%len(matrixVocab)])
		}
		out = append(out, RouteCase{
			Src:      src,
			Dst:      pick.v,
			Keywords: dedup(kws),
			Epsilon:  matrixEpsilons[n%len(matrixEpsilons)],
			K:        2 + n%2,
			Alpha:    trajAlphas[n%len(trajAlphas)],
			Budget:   budget,
		})
	}
	return out
}

// seed7 folds a seed into a non-negative rotation base.
func seed7(seed int64) int64 {
	s := seed * 7
	if s < 0 {
		s = -s
	}
	return s
}

// TrajCases derives the deterministic trajectory-SOI query grid for one
// seed: the radius sweep with rotating keyword sets.
func TrajCases(seed int64) []TrajCase {
	var out []TrajCase
	for i, r := range trajRadii {
		psi := 1 + i%2
		kws := make([]string, 0, psi)
		for j := 0; j < psi; j++ {
			kws = append(kws, matrixVocab[int(seed7(seed)+int64(17+i*5+j*3))%len(matrixVocab)])
		}
		out = append(out, TrajCase{
			Keywords: dedup(kws),
			Epsilon:  matrixEpsilons[i%len(matrixEpsilons)],
			K:        3,
			Radius:   r,
		})
	}
	return out
}

// BruteAdjacency builds the oracle's own adjacency view of the network:
// every segment in both directions plus a connector for every vertex
// pair within snap, found by a plain O(V²) scan instead of the
// production graph's grid buckets. Lists end in the same canonical
// (To, Seg) order, and connector lengths use the same Dist call, so the
// edge sets — and their floats — must match the production graph
// exactly.
func BruteAdjacency(net *network.Network, snap float64) [][]traj.Edge {
	adj := make([][]traj.Edge, net.NumVertices())
	for i := range net.Segments() {
		seg := net.Segment(network.SegmentID(i))
		adj[seg.From] = append(adj[seg.From], traj.Edge{To: seg.To, Seg: int32(seg.ID), Len: seg.Length()})
		adj[seg.To] = append(adj[seg.To], traj.Edge{To: seg.From, Seg: int32(seg.ID), Len: seg.Length()})
	}
	if snap > 0 {
		for u := 0; u < net.NumVertices(); u++ {
			pu := net.Vertex(network.VertexID(u))
			for v := u + 1; v < net.NumVertices(); v++ {
				if d := pu.Dist(net.Vertex(network.VertexID(v))); d <= snap {
					adj[u] = append(adj[u], traj.Edge{To: network.VertexID(v), Seg: traj.ConnectorSeg, Len: d})
					adj[v] = append(adj[v], traj.Edge{To: network.VertexID(u), Seg: traj.ConnectorSeg, Len: d})
				}
			}
		}
	}
	for v := range adj {
		es := adj[v]
		sort.Slice(es, func(i, j int) bool {
			if es[i].To != es[j].To {
				return es[i].To < es[j].To
			}
			return es[i].Seg < es[j].Seg
		})
	}
	return adj
}

// Distances is a heap-free O(V²) Dijkstra over an adjacency: the
// shortest-path length from src to every vertex, +Inf where unreachable.
// RouteTopK uses it for the provable budget-infeasibility prune, and the
// traj tests hold the production searches to it.
func Distances(adj [][]traj.Edge, src network.VertexID) []float64 {
	n := len(adj)
	dist := make([]float64, n)
	done := make([]bool, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	for {
		best, bestD := -1, math.Inf(1)
		for v := 0; v < n; v++ {
			if !done[v] && dist[v] < bestD {
				best, bestD = v, dist[v]
			}
		}
		if best < 0 {
			return dist
		}
		done[best] = true
		for _, e := range adj[best] {
			if nd := bestD + e.Len; nd < dist[e.To] {
				dist[e.To] = nd
			}
		}
	}
}

// RouteTopK enumerates every vertex-simple path from src to dst whose
// running length never exceeds the budget — a plain DFS whose only
// pruning is provable infeasibility (the path has already overrun the
// budget, or cannot possibly reach the destination within it). No score
// bound is ever applied, so the enumeration is exhaustive over the
// definition. Interest and length accumulate in traversal order with the
// same float operations as the production search.
func RouteTopK(adj [][]traj.Edge, interests []float64, q traj.RouteQuery) ([]traj.Route, error) {
	if int(q.Src) >= len(adj) || int(q.Dst) >= len(adj) {
		return nil, fmt.Errorf("oracle: route vertex out of range")
	}
	distToDst := Distances(adj, q.Dst)
	if math.IsInf(distToDst[q.Src], 1) {
		return []traj.Route{}, nil
	}
	budgetCap := q.Budget * (1 + 1e-9)
	var (
		completions []traj.Route
		steps       int
		verts       = []network.VertexID{q.Src}
		segs        []network.SegmentID
	)
	var dfs func(length, interest float64) error
	dfs = func(length, interest float64) error {
		steps++
		if steps > oracleMaxDFSSteps {
			return fmt.Errorf("oracle: route enumeration exceeded %d steps (harness case too large)", oracleMaxDFSSteps)
		}
		at := verts[len(verts)-1]
		if at == q.Dst {
			completions = append(completions, traj.Route{
				Vertices: append([]network.VertexID(nil), verts...),
				Segments: append([]network.SegmentID(nil), segs...),
				Length:   length,
				Interest: interest,
				Score:    interest - q.Alpha*length,
			})
			return nil
		}
		for _, e := range adj[at] {
			revisit := false
			for _, v := range verts {
				if v == e.To {
					revisit = true
					break
				}
			}
			if revisit {
				continue
			}
			newLen := length + e.Len
			if newLen > q.Budget {
				continue
			}
			if newLen+distToDst[e.To] > budgetCap {
				continue
			}
			newInterest := interest
			if e.Seg != traj.ConnectorSeg {
				newInterest += interests[e.Seg]
			}
			verts = append(verts, e.To)
			if e.Seg != traj.ConnectorSeg {
				segs = append(segs, network.SegmentID(e.Seg))
			}
			err := dfs(newLen, newInterest)
			verts = verts[:len(verts)-1]
			if e.Seg != traj.ConnectorSeg {
				segs = segs[:len(segs)-1]
			}
			if err != nil {
				return err
			}
		}
		return nil
	}
	if err := dfs(0, 0); err != nil {
		return nil, err
	}
	traj.SortRoutes(completions)
	if len(completions) > q.K {
		completions = completions[:q.K]
	}
	return completions, nil
}

// MatchPoint is the oracle map-matcher: a full ascending scan over every
// segment with a strict < improvement test, accepting the winner only
// within the radius. The production grid matcher must agree exactly.
func MatchPoint(net *network.Network, p geo.Point, radius float64) (network.SegmentID, bool) {
	var (
		best   network.SegmentID
		bestD2 = math.Inf(1)
	)
	for sid := 0; sid < net.NumSegments(); sid++ {
		if d2 := net.Segment(network.SegmentID(sid)).Geom.DistToPointSq(p); d2 < bestD2 {
			best, bestD2 = network.SegmentID(sid), d2
		}
	}
	if bestD2 <= radius*radius {
		return best, true
	}
	return 0, false
}

// TrajTopK is the oracle trajectory-SOI: full-scan matching of every
// trace point, then the canonical corridor aggregation over exhaustively
// computed segment interests.
func TrajTopK(net *network.Network, pois *poi.Corpus, traces [][]geo.Point, q traj.TrajQuery, query vocab.Set, eps float64) []traj.CorridorResult {
	var covered []network.SegmentID
	for _, trace := range traces {
		for _, p := range trace {
			if sid, ok := MatchPoint(net, p, q.Radius); ok {
				covered = append(covered, sid)
			}
		}
	}
	slices.Sort(covered)
	return traj.CorridorRanking(net, slices.Compact(covered), func(sid network.SegmentID) float64 {
		return SegmentInterest(net, pois, sid, query, eps)
	}, q.K, nil)
}

// EqualRoutes compares two route rankings for exact agreement: same
// paths rank by rank, with bit-identical length, interest and score.
func EqualRoutes(got, want []traj.Route) string {
	if len(got) != len(want) {
		return fmt.Sprintf("length %d, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if !equalVerts(g.Vertices, w.Vertices) {
			return fmt.Sprintf("rank %d: vertices %v, want %v", i+1, g.Vertices, w.Vertices)
		}
		if !equalSegs(g.Segments, w.Segments) {
			return fmt.Sprintf("rank %d: segments %v, want %v", i+1, g.Segments, w.Segments)
		}
		switch {
		case math.Float64bits(g.Length) != math.Float64bits(w.Length):
			return fmt.Sprintf("rank %d: length %v, want %v", i+1, g.Length, w.Length)
		case math.Float64bits(g.Interest) != math.Float64bits(w.Interest):
			return fmt.Sprintf("rank %d: interest %v, want %v", i+1, g.Interest, w.Interest)
		case math.Float64bits(g.Score) != math.Float64bits(w.Score):
			return fmt.Sprintf("rank %d: score %v, want %v", i+1, g.Score, w.Score)
		}
	}
	return ""
}

// EqualCorridors compares two corridor rankings for exact agreement.
func EqualCorridors(got, want []traj.CorridorResult) string {
	if len(got) != len(want) {
		return fmt.Sprintf("length %d, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		switch {
		case g.Street != w.Street:
			return fmt.Sprintf("rank %d: street %d (%q, score %v), want street %d (%q, score %v)",
				i+1, g.Street, g.Name, g.Score, w.Street, w.Name, w.Score)
		case g.Name != w.Name:
			return fmt.Sprintf("rank %d: name %q, want %q", i+1, g.Name, w.Name)
		case math.Float64bits(g.Coverage) != math.Float64bits(w.Coverage):
			return fmt.Sprintf("rank %d (street %d): coverage %v, want %v", i+1, g.Street, g.Coverage, w.Coverage)
		case math.Float64bits(g.Interest) != math.Float64bits(w.Interest):
			return fmt.Sprintf("rank %d (street %d): interest %v, want %v", i+1, g.Street, g.Interest, w.Interest)
		case math.Float64bits(g.Score) != math.Float64bits(w.Score):
			return fmt.Sprintf("rank %d (street %d): score %v, want %v", i+1, g.Street, g.Score, w.Score)
		}
	}
	return ""
}

func equalVerts(a, b []network.VertexID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalSegs(a, b []network.SegmentID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// DiffTraj runs the trajectory differential matrix over one world. For
// every derived route case it first pins every per-segment interest of
// the production index bit-identical to the exhaustive scan (so any
// route divergence isolates the search, not interest provenance), then
// compares the pruned best-first search against exhaustive enumeration
// over the oracle's own adjacency. For every trajectory case it compares
// the grid matcher against the full scan point by point, then the
// end-to-end corridor rankings. Options.Routes / Options.Traj select the
// halves; cell sizes sweep as in DiffWorld.
func DiffTraj(w World, seed int64, opt Options) ([]Divergence, error) {
	if !opt.Routes && !opt.Traj {
		return nil, nil
	}
	net, pois, _, dict, err := w.Build()
	if err != nil {
		return nil, err
	}
	if net.NumSegments() == 0 {
		return nil, nil
	}
	ctx := context.Background()
	snap := traj.DefaultSnap(net)
	g := traj.NewGraph(net, snap)
	var divs []Divergence

	// The matcher differential is index-free: run it once per radius.
	if opt.Traj && len(w.Traces) > 0 {
		for _, c := range TrajCases(seed) {
			m := traj.NewMatcher(net, c.Radius)
			for ti, trace := range w.Traces {
				for pi, p := range trace {
					gs, gok := m.Match(p)
					ws, wok := MatchPoint(net, p, c.Radius)
					if gok != wok || (gok && gs != ws) {
						divs = append(divs, Divergence{
							Impl: "traj/match",
							Detail: fmt.Sprintf("trace %d point %d (r=%g): grid match (%d,%t), full scan (%d,%t)",
								ti, pi, c.Radius, gs, gok, ws, wok),
						})
					}
				}
			}
		}
	}

	var adj [][]traj.Edge
	var routeCases []RouteCase
	if opt.Routes {
		adj = BruteAdjacency(net, snap)
		routeCases = RouteCases(g, seed)
	}

	for _, cell := range opt.cellSizes() {
		ix, err := core.NewIndex(net, pois, core.IndexConfig{CellSize: cell})
		if err != nil {
			return nil, fmt.Errorf("oracle: building index (cell %g): %w", cell, err)
		}
		report := func(impl string, q core.Query, detail string) {
			divs = append(divs, Divergence{Impl: impl, CellSize: cell, Query: q, Detail: detail})
		}

		if opt.Routes {
			for _, c := range routeCases {
				rq := core.Query{Keywords: c.Keywords, K: c.K, Epsilon: c.Epsilon}
				set, _ := dict.LookupAll(c.Keywords)
				interests := make([]float64, net.NumSegments())
				for sid := range interests {
					interests[sid] = SegmentInterest(net, pois, network.SegmentID(sid), set, c.Epsilon)
				}
				tq := traj.RouteQuery{Src: c.Src, Dst: c.Dst, K: c.K, Budget: c.Budget, Alpha: c.Alpha}
				want, err := RouteTopK(adj, interests, tq)
				if err != nil {
					return nil, err
				}
				diverged := false
				for sid := range interests {
					got := ix.SegmentInterest(network.SegmentID(sid), set, c.Epsilon)
					if math.Float64bits(got) != math.Float64bits(interests[sid]) {
						report("routes/interest", rq, fmt.Sprintf("segment %d: index interest %v, exhaustive %v", sid, got, interests[sid]))
						diverged = true
						break
					}
				}
				if diverged {
					continue
				}
				memo, err := ix.InterestOf(set, c.Epsilon)
				if err != nil {
					return nil, err
				}
				got, _, err := traj.TopKRoutes(ctx, g, memo.Interest, tq, traj.SearchOptions{})
				if err != nil {
					report("routes/topk", rq, fmt.Sprintf("%s: error: %v", c.Label(), err))
					continue
				}
				if d := EqualRoutes(got, want); d != "" {
					report("routes/topk", rq, fmt.Sprintf("%s: %s", c.Label(), d))
				}
			}
		}

		if opt.Traj && len(w.Traces) > 0 {
			for _, c := range TrajCases(seed) {
				rq := core.Query{Keywords: c.Keywords, K: c.K, Epsilon: c.Epsilon}
				set, _ := dict.LookupAll(c.Keywords)
				tq := traj.TrajQuery{Traces: w.Traces, K: c.K, Radius: c.Radius}
				m := traj.NewMatcher(net, c.Radius)
				want := TrajTopK(net, pois, w.Traces, tq, set, c.Epsilon)
				memo, err := ix.InterestOf(set, c.Epsilon)
				if err != nil {
					return nil, err
				}
				got, _, err := traj.TrajectorySOI(ctx, m, memo.Interest, tq)
				if err != nil {
					report("traj/soi", rq, fmt.Sprintf("r=%g: error: %v", c.Radius, err))
					continue
				}
				if d := EqualCorridors(got, want); d != "" {
					report("traj/soi", rq, fmt.Sprintf("r=%g: %s", c.Radius, d))
				}
			}
		}
	}
	return divs, nil
}
