package soi

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/network"
	"repro/internal/traj"
)

// This file wires the trajectory query family (internal/traj) into the
// public engine: k most interesting routes between two points, and
// trajectory-aware SOI over user movement traces. Both are admitted
// through the gate k-SOI queries queue behind (engine.Executor.Run), so
// they shed, time out and isolate panics the way k-SOI queries do, and
// both resolve the serving index per query so live engines answer
// against the currently published epoch.

// RouteQuery asks for the k most interesting walking routes between two
// free points, which are snapped to their nearest network vertices.
type RouteQuery struct {
	Src, Dst Point
	// Keywords select the POIs whose interest the route collects.
	Keywords []string
	// K is the number of routes to return.
	K int
	// Epsilon is the segment-interest distance threshold ε.
	Epsilon float64
	// Budget caps the route's total walking length (coordinate units).
	Budget float64
	// Alpha is the travel-cost weight: route score = interest − α·length.
	Alpha float64
}

// RouteResult is one ranked route of a TopRoutes answer.
type RouteResult struct {
	// Polyline is the walked vertex sequence as coordinates.
	Polyline []Point
	// Streets names the traversed streets in walk order, consecutive
	// duplicates collapsed.
	Streets []string
	// Length is the total walked length; Interest the collected segment
	// interest; Score = Interest − α·Length.
	Length   float64
	Interest float64
	Score    float64
}

// TrajectoryQuery ranks streets by interest restricted to corridors the
// given movement traces actually traveled.
type TrajectoryQuery struct {
	// Traces are the movement polylines.
	Traces [][]Point
	// Keywords select the POIs contributing interest.
	Keywords []string
	// K is the number of streets to return.
	K int
	// Epsilon is the segment-interest distance threshold ε.
	Epsilon float64
	// Radius is the map-matching snap radius; 0 means a default derived
	// from the network's mean segment length.
	Radius float64
}

// CorridorStreet is one ranked street of a TrajectorySOI answer.
type CorridorStreet struct {
	Name string
	// Coverage is the traveled fraction of the street in (0, 1].
	Coverage float64
	// Interest is the maximum segment interest among traveled segments.
	Interest float64
	// Score = Coverage × Interest.
	Score float64
}

// ErrNoTraces is returned by TrajectorySOI when the query has no traces.
var ErrNoTraces = errors.New("soi: trajectory query has no traces")

// trajGraph lazily builds the shared trajectory search graph.
func (e *Engine) trajGraphLazy() *traj.Graph {
	e.trajOnce.Do(func() {
		e.trajG = traj.NewGraph(e.net, e.defaultSnap)
	})
	return e.trajG
}

// trajMatcherCacheSize bounds the per-radius matcher memo. The network is
// immutable, so a matcher never goes stale; the bound only stops requests
// sweeping distinct radii from growing it without limit — the least
// recently used radius makes room for a new one.
const trajMatcherCacheSize = 8

// trajMatcherLazy returns the map-matching grid for one snap radius,
// memoised across queries (the default radius is the common case, paid
// once — mirroring trajGraphLazy). A matcher is two flat arrays, 4 B per
// grid cell and per bucket entry: on Berlin 0.25 about 0.2 MB at the
// default radius and 4.3 MB at most, where a tiny radius meets the
// extent/1024 cell floor, so a memo full of floored radii holds ~35 MB.
// Construction happens outside the memo's lock so concurrent first
// requests for different radii don't serialize; a racing duplicate build
// is benign (identical, immutable matchers).
func (e *Engine) trajMatcherLazy(radius float64) *traj.Matcher {
	if m, ok := e.matchers.Get(radius); ok {
		return m
	}
	m := traj.NewMatcher(e.net, radius)
	e.matchers.Put(radius, m, 1)
	return m
}

// TopRoutes evaluates the k most interesting routes query.
func (e *Engine) TopRoutes(q RouteQuery) ([]RouteResult, error) {
	return e.TopRoutesCtx(context.Background(), q)
}

// TopRoutesCtx is TopRoutes under a context: the search observes
// cancellation at cooperative checkpoints, the engine's QueryTimeout
// bounds it, and an overloaded engine sheds with ErrOverloaded.
func (e *Engine) TopRoutesCtx(ctx context.Context, q RouteQuery) ([]RouteResult, error) {
	e.rec.Traj.RouteQueries.Add(1)
	var routes []traj.Route
	err := e.exec.Run(ctx, &e.rec.Traj.Outcomes, func(ctx context.Context, ix *core.Index) (err error) {
		start := time.Now()
		defer func() { e.rec.Traj.SearchNanos.Add(time.Since(start).Nanoseconds()) }()
		g := e.trajGraphLazy()
		src, ok := g.SnapVertex(geo.Pt(q.Src.X, q.Src.Y))
		if !ok {
			return errors.New("soi: empty network")
		}
		dst, _ := g.SnapVertex(geo.Pt(q.Dst.X, q.Dst.Y))
		set, _ := ix.POIs().Dict().LookupAll(q.Keywords)
		tq := traj.RouteQuery{Src: src, Dst: dst, K: q.K, Budget: q.Budget, Alpha: q.Alpha}
		var st traj.SearchStats
		routes, st, err = traj.TopKRoutes(ctx, g, func(sid network.SegmentID) float64 {
			return ix.SegmentInterest(sid, set, q.Epsilon)
		}, tq, traj.SearchOptions{})
		e.rec.Traj.Expansions.Add(int64(st.Expansions))
		e.rec.Traj.VerticesSettled.Add(int64(st.Settled))
		e.rec.Traj.SegmentsFolded.Add(int64(st.SegmentsFolded))
		return err
	})
	if err != nil {
		return nil, err
	}
	out := make([]RouteResult, len(routes))
	for i, r := range routes {
		out[i] = toRouteResult(e.net, r)
	}
	return out, nil
}

func toRouteResult(net *network.Network, r traj.Route) RouteResult {
	res := RouteResult{Length: r.Length, Interest: r.Interest, Score: r.Score}
	for _, v := range r.Vertices {
		p := net.Vertex(v)
		res.Polyline = append(res.Polyline, Point{X: p.X, Y: p.Y})
	}
	for _, sid := range r.Segments {
		name := net.Street(net.Segment(sid).Street).Name
		if n := len(res.Streets); n == 0 || res.Streets[n-1] != name {
			res.Streets = append(res.Streets, name)
		}
	}
	return res
}

// TrajectorySOI evaluates the trajectory-aware SOI query.
func (e *Engine) TrajectorySOI(q TrajectoryQuery) ([]CorridorStreet, error) {
	return e.TrajectorySOICtx(context.Background(), q)
}

// TrajectorySOICtx is TrajectorySOI under a context, with the same
// admission, timeout and panic-isolation contract as TopRoutesCtx.
func (e *Engine) TrajectorySOICtx(ctx context.Context, q TrajectoryQuery) ([]CorridorStreet, error) {
	e.rec.Traj.TrajQueries.Add(1)
	if len(q.Traces) == 0 {
		return nil, ErrNoTraces
	}
	var res []traj.CorridorResult
	err := e.exec.Run(ctx, &e.rec.Traj.Outcomes, func(ctx context.Context, ix *core.Index) (err error) {
		start := time.Now()
		defer func() { e.rec.Traj.MatchNanos.Add(time.Since(start).Nanoseconds()) }()
		radius := q.Radius
		if radius == 0 {
			radius = e.defaultSnap
		}
		if !(radius > 0) || math.IsInf(radius, 1) {
			return fmt.Errorf("soi: match radius %v is not a positive finite number", radius)
		}
		traces := make([][]geo.Point, len(q.Traces))
		for i, tr := range q.Traces {
			pts := make([]geo.Point, len(tr))
			for j, p := range tr {
				pts[j] = geo.Pt(p.X, p.Y)
			}
			traces[i] = pts
		}
		set, _ := ix.POIs().Dict().LookupAll(q.Keywords)
		var st traj.MatchStats
		res, st, err = traj.TrajectorySOI(ctx, e.trajMatcherLazy(radius), func(sid network.SegmentID) float64 {
			return ix.SegmentInterest(sid, set, q.Epsilon)
		}, traj.TrajQuery{Traces: traces, K: q.K, Radius: radius})
		e.rec.Traj.TracePoints.Add(int64(st.TracePoints))
		e.rec.Traj.MatchedPoints.Add(int64(st.Matched))
		e.rec.Traj.CorridorSegments.Add(int64(st.CoveredSegments))
		return err
	})
	if err != nil {
		return nil, err
	}
	out := make([]CorridorStreet, len(res))
	for i, r := range res {
		out[i] = CorridorStreet{Name: r.Name, Coverage: r.Coverage, Interest: r.Interest, Score: r.Score}
	}
	return out, nil
}
