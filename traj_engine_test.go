package soi_test

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	soi "repro"
	"repro/internal/faults"
)

// trajEngine builds a 3×3 street grid (spacing 0.001) with shop and cafe
// POIs clustered on the middle horizontal street.
func trajEngine(t *testing.T, cfg soi.Config) *soi.Engine {
	t.Helper()
	var streets []soi.StreetInput
	for i := 0; i < 3; i++ {
		y := float64(i) * 0.001
		streets = append(streets, soi.StreetInput{
			Name:     "H" + string(rune('0'+i)),
			Polyline: []soi.Point{{X: 0, Y: y}, {X: 0.001, Y: y}, {X: 0.002, Y: y}},
		})
	}
	for j := 0; j < 3; j++ {
		x := float64(j) * 0.001
		streets = append(streets, soi.StreetInput{
			Name:     "V" + string(rune('0'+j)),
			Polyline: []soi.Point{{X: x, Y: 0}, {X: x, Y: 0.001}, {X: x, Y: 0.002}},
		})
	}
	var pois []soi.POIInput
	for k := 0; k < 8; k++ {
		x := 0.0002 + float64(k)*0.0002
		pois = append(pois,
			soi.POIInput{X: x, Y: 0.001, Keywords: []string{"shop"}},
			soi.POIInput{X: x, Y: 0.00105, Keywords: []string{"cafe"}},
		)
	}
	pois = append(pois, soi.POIInput{X: 0.0005, Y: 0, Keywords: []string{"shop"}})
	photos := []soi.PhotoInput{{X: 0.001, Y: 0.001, Tags: []string{"shop"}}}
	e, err := soi.NewEngine(streets, pois, photos, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestEngineTopRoutes(t *testing.T) {
	e := trajEngine(t, soi.Config{})
	routes, err := e.TopRoutes(soi.RouteQuery{
		Src: soi.Point{X: 0, Y: 0}, Dst: soi.Point{X: 0.002, Y: 0.002},
		Keywords: []string{"shop"}, K: 3, Epsilon: 0.0005, Budget: 0.02,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(routes) == 0 {
		t.Fatal("no routes")
	}
	for i, r := range routes {
		if len(r.Polyline) < 2 || len(r.Streets) == 0 {
			t.Fatalf("route %d missing geometry: %+v", i, r)
		}
		if r.Polyline[0] != (soi.Point{X: 0, Y: 0}) {
			t.Fatalf("route %d starts at %+v", i, r.Polyline[0])
		}
		if last := r.Polyline[len(r.Polyline)-1]; last != (soi.Point{X: 0.002, Y: 0.002}) {
			t.Fatalf("route %d ends at %+v", i, last)
		}
	}
	// The grid's interest lives on H1: the best route should walk it.
	found := false
	for _, name := range routes[0].Streets {
		if name == "H1" {
			found = true
		}
	}
	if !found {
		t.Fatalf("best route %v skips the interesting street H1", routes[0].Streets)
	}
	snap := e.StatsSnapshot()
	if snap.Traj.RouteQueries == 0 || snap.Traj.Expansions == 0 {
		t.Fatalf("route counters not recorded: %+v", snap.Traj)
	}
}

// Adding keywords can only add interest to every segment, so the best
// route's score is monotone in the keyword set — exactly, not modulo
// rounding, because each segment interest grows pointwise.
func TestEngineRoutesKeywordSupersetMonotonicity(t *testing.T) {
	e := trajEngine(t, soi.Config{})
	q := soi.RouteQuery{
		Src: soi.Point{X: 0, Y: 0}, Dst: soi.Point{X: 0.002, Y: 0.002},
		Keywords: []string{"shop"}, K: 1, Epsilon: 0.0005, Budget: 0.02,
	}
	base, err := e.TopRoutes(q)
	if err != nil || len(base) == 0 {
		t.Fatalf("base query: routes=%d err=%v", len(base), err)
	}
	q.Keywords = []string{"shop", "cafe"}
	super, err := e.TopRoutes(q)
	if err != nil || len(super) == 0 {
		t.Fatalf("superset query: routes=%d err=%v", len(super), err)
	}
	if super[0].Score < base[0].Score {
		t.Fatalf("superset keywords lowered top score: %v -> %v", base[0].Score, super[0].Score)
	}
}

func TestEngineTrajectorySOI(t *testing.T) {
	e := trajEngine(t, soi.Config{})
	res, err := e.TrajectorySOI(soi.TrajectoryQuery{
		Traces: [][]soi.Point{{
			{X: 0.0001, Y: 0.00101}, {X: 0.001, Y: 0.00099}, {X: 0.0019, Y: 0.00101},
		}},
		Keywords: []string{"shop"}, K: 5, Epsilon: 0.0005, Radius: 0.0003,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 || res[0].Name != "H1" {
		t.Fatalf("corridor ranking = %+v, want H1 first", res)
	}
	if res[0].Coverage <= 0 || res[0].Coverage > 1 {
		t.Fatalf("coverage = %v", res[0].Coverage)
	}
	snap := e.StatsSnapshot()
	if snap.Traj.TrajQueries == 0 || snap.Traj.TracePoints != 3 || snap.Traj.MatchedPoints == 0 {
		t.Fatalf("trajectory counters not recorded: %+v", snap.Traj)
	}

	if _, err := e.TrajectorySOI(soi.TrajectoryQuery{Keywords: []string{"shop"}, K: 3}); !errors.Is(err, soi.ErrNoTraces) {
		t.Fatalf("err = %v, want ErrNoTraces", err)
	}
}

// Regression: a request-supplied radius orders of magnitude below the
// network extent must be answered (with few or no matches), not wedge a
// worker building an unbounded matching grid; a NaN radius is rejected.
// Repeats of the default-radius query hit the cached matcher and must
// return identical results.
func TestEngineTrajectorySOIRadiusEdgeCases(t *testing.T) {
	e := trajEngine(t, soi.Config{})
	q := soi.TrajectoryQuery{
		Traces:   [][]soi.Point{{{X: 0.0001, Y: 0.00101}, {X: 0.001, Y: 0.00099}}},
		Keywords: []string{"shop"}, K: 5, Epsilon: 0.0005,
	}

	tiny := q
	tiny.Radius = 1e-15
	if _, err := e.TrajectorySOI(tiny); err != nil {
		t.Fatalf("tiny radius: %v", err)
	}

	nan := q
	nan.Radius = math.NaN()
	if _, err := e.TrajectorySOI(nan); err == nil {
		t.Fatal("NaN radius accepted")
	}

	first, err := e.TrajectorySOI(q)
	if err != nil {
		t.Fatal(err)
	}
	second, err := e.TrajectorySOI(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != len(second) {
		t.Fatalf("cached-matcher repeat changed answer size: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("cached-matcher repeat diverged at %d: %+v vs %+v", i, first[i], second[i])
		}
	}
}

func TestEngineTrajShedsUnderLoad(t *testing.T) {
	defer faults.Reset()
	e := trajEngine(t, soi.Config{Workers: 1, QueueDepth: 1})
	q := soi.RouteQuery{
		Src: soi.Point{X: 0, Y: 0}, Dst: soi.Point{X: 0.002, Y: 0.002},
		Keywords: []string{"shop"}, K: 1, Epsilon: 0.0005, Budget: 0.02,
	}

	block := make(chan struct{})
	faults.Activate("traj.search", faults.Fault{Block: block})

	// Query 1 takes the only worker slot and parks on the fault site.
	done1 := make(chan error, 1)
	go func() { _, err := e.TopRoutes(q); done1 <- err }()
	waitFor(t, func() bool { return faults.Visits("traj.search") >= 1 })

	// Query 2 fills the one queue slot.
	done2 := make(chan error, 1)
	go func() { _, err := e.TopRoutes(q); done2 <- err }()
	time.Sleep(50 * time.Millisecond)

	// Query 3 finds the queue full and is shed immediately.
	if _, err := e.TopRoutes(q); !errors.Is(err, soi.ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}

	close(block)
	if err := <-done1; err != nil {
		t.Fatalf("query 1: %v", err)
	}
	if err := <-done2; err != nil {
		t.Fatalf("query 2: %v", err)
	}
	if shed := e.StatsSnapshot().Traj.Shed; shed == 0 {
		t.Fatal("shed counter not recorded")
	}
}

// TestEngineTrajGateGauges: routes and trajectories wait in and hold the
// one gate the k-SOI queries do, so the engine's queue and in-flight
// gauges describe them too. A route parked behind a trajectory query
// holding the only worker is queue depth 1; admitted, it is in flight 1.
func TestEngineTrajGateGauges(t *testing.T) {
	defer faults.Reset()
	e := trajEngine(t, soi.Config{Workers: 1, QueueDepth: 1})
	gauges := func() (depth, inFlight int64) {
		s := e.StatsSnapshot().Engine
		return s.QueueDepth, s.InFlight
	}
	matchBlock, searchBlock := make(chan struct{}), make(chan struct{})
	faults.Activate("traj.match", faults.Fault{Block: matchBlock, Times: 1})
	faults.Activate("traj.search", faults.Fault{Block: searchBlock, Times: 1})

	trajDone := make(chan error, 1)
	go func() {
		_, err := e.TrajectorySOI(soi.TrajectoryQuery{
			Traces:   [][]soi.Point{{{X: 0.0001, Y: 0.00101}, {X: 0.001, Y: 0.00099}}},
			Keywords: []string{"shop"}, K: 5, Epsilon: 0.0005, Radius: 0.0003,
		})
		trajDone <- err
	}()
	waitFor(t, func() bool { return faults.Visits("traj.match") >= 1 })
	if d, f := gauges(); d != 0 || f != 1 {
		t.Fatalf("trajectory holding the slot: queue_depth %d in_flight %d, want 0 1", d, f)
	}

	routeDone := make(chan error, 1)
	go func() {
		_, err := e.TopRoutes(soi.RouteQuery{
			Src: soi.Point{X: 0, Y: 0}, Dst: soi.Point{X: 0.002, Y: 0.002},
			Keywords: []string{"shop"}, K: 1, Epsilon: 0.0005, Budget: 0.02,
		})
		routeDone <- err
	}()
	waitFor(t, func() bool { d, _ := gauges(); return d == 1 })

	close(matchBlock)
	if err := <-trajDone; err != nil {
		t.Fatalf("trajectory: %v", err)
	}
	waitFor(t, func() bool { return faults.Visits("traj.search") >= 1 })
	if d, f := gauges(); d != 0 || f != 1 {
		t.Fatalf("route admitted: queue_depth %d in_flight %d, want 0 1", d, f)
	}
	close(searchBlock)
	if err := <-routeDone; err != nil {
		t.Fatalf("route: %v", err)
	}
	s := e.StatsSnapshot().Engine
	if s.QueueDepth != 0 || s.InFlight != 0 || s.PeakQueueDepth != 1 || s.PeakInFlight != 1 || s.QueueWait.Count != 2 {
		t.Fatalf("after both queries: %+v", s)
	}
	if s.Evaluations != 0 || s.QueryLatency.Count != 0 {
		t.Fatalf("routes counted as k-SOI evaluations: evaluations %d, query_latency count %d", s.Evaluations, s.QueryLatency.Count)
	}
}

// TestEngineTrajCancelledNeverRuns: a query whose context is already
// cancelled is refused at the gate every time, free slots or not.
func TestEngineTrajCancelledNeverRuns(t *testing.T) {
	e := trajEngine(t, soi.Config{Workers: 4, QueueDepth: 1})
	q := soi.RouteQuery{
		Src: soi.Point{X: 0, Y: 0}, Dst: soi.Point{X: 0.002, Y: 0.002},
		Keywords: []string{"shop"}, K: 1, Epsilon: 0.0005, Budget: 0.02,
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 200; i++ {
		if _, err := e.TopRoutesCtx(ctx, q); !errors.Is(err, context.Canceled) {
			t.Fatalf("try %d: err = %v, want context.Canceled", i, err)
		}
	}
	snap := e.StatsSnapshot().Traj
	if snap.Cancelled != 200 || snap.VerticesSettled != 0 || snap.Shed != 0 {
		t.Fatalf("cancelled queries ran or were miscounted: %+v", snap)
	}
}

// TestEngineTrajFreeSlotsNeverShed: simultaneous arrivals that all find a
// free slot are all served, however shallow the wait queue.
func TestEngineTrajFreeSlotsNeverShed(t *testing.T) {
	const workers = 4
	e := trajEngine(t, soi.Config{Workers: workers, QueueDepth: 1})
	q := soi.RouteQuery{
		Src: soi.Point{X: 0, Y: 0}, Dst: soi.Point{X: 0.002, Y: 0.002},
		Keywords: []string{"shop"}, K: 1, Epsilon: 0.0005, Budget: 0.02,
	}
	if _, err := e.TopRoutes(q); err != nil { // build the search graph once
		t.Fatal(err)
	}
	for round := 0; round < 50; round++ {
		start := make(chan struct{})
		errs := make(chan error, workers)
		for i := 0; i < workers; i++ {
			go func() {
				<-start
				_, err := e.TopRoutes(q)
				errs <- err
			}()
		}
		close(start)
		for i := 0; i < workers; i++ {
			if err := <-errs; err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		}
	}
}

func TestEngineTrajQueryTimeout(t *testing.T) {
	defer faults.Reset()
	e := trajEngine(t, soi.Config{QueryTimeout: 20 * time.Millisecond})
	faults.Activate("traj.search", faults.Fault{Delay: 30 * time.Millisecond})
	_, err := e.TopRoutes(soi.RouteQuery{
		Src: soi.Point{X: 0, Y: 0}, Dst: soi.Point{X: 0.002, Y: 0.002},
		Keywords: []string{"shop"}, K: 1, Epsilon: 0.0005, Budget: 0.02,
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if n := e.StatsSnapshot().Traj.DeadlineExceeded; n == 0 {
		t.Fatal("deadline counter not recorded")
	}
}

func TestEngineTrajPanicIsolation(t *testing.T) {
	defer faults.Reset()
	e := trajEngine(t, soi.Config{})
	faults.Activate("traj.search", faults.Fault{Panic: true, PanicValue: "boom", Times: 1})
	_, err := e.TopRoutes(soi.RouteQuery{
		Src: soi.Point{X: 0, Y: 0}, Dst: soi.Point{X: 0.002, Y: 0.002},
		Keywords: []string{"shop"}, K: 1, Epsilon: 0.0005, Budget: 0.02,
	})
	var pe *soi.PanicError
	if !errors.As(err, &pe) || pe.Value != "boom" {
		t.Fatalf("err = %v, want PanicError{boom}", err)
	}
	if n := e.StatsSnapshot().Traj.PanicsRecovered; n != 1 {
		t.Fatalf("panics recovered = %d, want 1", n)
	}
	// The engine still serves after recovering.
	faults.Deactivate("traj.search")
	if _, err := e.TopRoutes(soi.RouteQuery{
		Src: soi.Point{X: 0, Y: 0}, Dst: soi.Point{X: 0.002, Y: 0.002},
		Keywords: []string{"shop"}, K: 1, Epsilon: 0.0005, Budget: 0.02,
	}); err != nil {
		t.Fatalf("query after recovery: %v", err)
	}
}

// TestEngineTourCancelledMidPlan: the tour planner runs under the caller's
// context. Cancelled after the k-SOI half has answered and the planner's
// first search has started, the tour comes back as context.Canceled and is
// counted, not planned to the end.
func TestEngineTourCancelledMidPlan(t *testing.T) {
	defer faults.Reset()
	e := trajEngine(t, soi.Config{})
	block := make(chan struct{})
	defer close(block)
	faults.Activate("traj.tour", faults.Fault{Block: block})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := e.RecommendTourCtx(ctx, soi.Query{Keywords: []string{"shop"}, K: 3, Epsilon: 0.0005}, 1)
		done <- err
	}()
	waitFor(t, func() bool { return faults.Visits("traj.tour") >= 1 })
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("planner did not observe the cancel")
	}
	if n := e.StatsSnapshot().Traj.Cancelled; n != 1 {
		t.Fatalf("cancelled = %d, want 1", n)
	}
}

// TestEngineTourShedsUnderLoad: the planner queues behind the gate routes,
// trajectories and describes share — one planning, one waiting, the third
// shed — and answers once the slot frees.
func TestEngineTourShedsUnderLoad(t *testing.T) {
	defer faults.Reset()
	e := trajEngine(t, soi.Config{Workers: 1, QueueDepth: 1})
	q := soi.Query{Keywords: []string{"shop"}, K: 3, Epsilon: 0.0005}
	want, err := e.RecommendTour(q, 1)
	if err != nil {
		t.Fatal(err)
	}

	block := make(chan struct{})
	faults.Activate("traj.tour", faults.Fault{Block: block, Times: 1})
	done1 := make(chan error, 1)
	go func() { _, err := e.RecommendTour(q, 1); done1 <- err }()
	waitFor(t, func() bool { return faults.Visits("traj.tour") >= 1 })
	done2 := make(chan error, 1)
	go func() { _, err := e.RecommendTour(q, 1); done2 <- err }()
	time.Sleep(50 * time.Millisecond)
	if _, err := e.RecommendTour(q, 1); !errors.Is(err, soi.ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	close(block)
	for _, done := range []chan error{done1, done2} {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if shed := e.StatsSnapshot().Traj.Shed; shed != 1 {
		t.Fatalf("shed = %d, want 1", shed)
	}
	got, err := e.RecommendTour(q, 1)
	if err != nil || len(got.Stops) != len(want.Stops) || got.Length != want.Length {
		t.Fatalf("tour after load = %+v, %v; want %+v", got, err, want)
	}
}

// TestEngineTourRefusesBadBudget: a budget that is not positive and
// finite is refused with ErrBadTourBudget before the k-SOI half runs, so
// neither the executor's query counters nor the traj counters move; a
// good budget after them is evaluated as usual.
func TestEngineTourRefusesBadBudget(t *testing.T) {
	e := trajEngine(t, soi.Config{})
	q := soi.Query{Keywords: []string{"shop"}, K: 3, Epsilon: 0.0005}
	before := e.StatsSnapshot()
	for _, budget := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -1} {
		if _, err := e.RecommendTour(q, budget); !errors.Is(err, soi.ErrBadTourBudget) {
			t.Errorf("budget %v: err = %v, want ErrBadTourBudget", budget, err)
		}
	}
	after := e.StatsSnapshot()
	if after.Engine.Queries != before.Engine.Queries || after.Engine.Evaluations != before.Engine.Evaluations ||
		after.Core.Evaluations != before.Core.Evaluations || after.Traj != before.Traj {
		t.Fatalf("refused budgets moved counters:\nbefore engine %+v traj %+v\n after engine %+v traj %+v",
			before.Engine, before.Traj, after.Engine, after.Traj)
	}
	if _, err := e.RecommendTour(q, 1); err != nil {
		t.Fatal(err)
	}
	if got := e.StatsSnapshot().Engine.Queries; got == after.Engine.Queries {
		t.Fatalf("a planned tour left engine queries at %d", got)
	}
}

// TestEngineTrajRefusesBadEpsilon: routes and trajectory SOI refuse an ε
// that is not positive and finite with ErrBadEpsilon before they are
// admitted, so no interest is requested or folded — ε = 0 would rank by
// NaN interests and a NaN ε would build an ε-plan per fold. A good ε
// after them is evaluated as usual.
func TestEngineTrajRefusesBadEpsilon(t *testing.T) {
	e := trajEngine(t, soi.Config{})
	rq := soi.RouteQuery{Src: soi.Point{X: 0, Y: 0.001}, Dst: soi.Point{X: 0.002, Y: 0.001}, Keywords: []string{"shop"}, K: 2, Budget: 0.004}
	tq := soi.TrajectoryQuery{Traces: [][]soi.Point{{{X: 0, Y: 0.001}, {X: 0.002, Y: 0.001}}}, Keywords: []string{"shop"}, K: 3}
	before := e.StatsSnapshot().Traj
	for _, eps := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -0.0005} {
		rq.Epsilon, tq.Epsilon = eps, eps
		if _, err := e.TopRoutes(rq); !errors.Is(err, soi.ErrBadEpsilon) {
			t.Errorf("routes ε=%v: err = %v, want ErrBadEpsilon", eps, err)
		}
		if _, err := e.TrajectorySOI(tq); !errors.Is(err, soi.ErrBadEpsilon) {
			t.Errorf("trajectory ε=%v: err = %v, want ErrBadEpsilon", eps, err)
		}
	}
	after := e.StatsSnapshot().Traj
	if after.SegmentsFolded != before.SegmentsFolded || after.CorridorSegments != before.CorridorSegments || after.InterestMemoMisses != before.InterestMemoMisses {
		t.Fatalf("refused ε requested interests:\nbefore %+v\n after %+v", before, after)
	}
	rq.Epsilon, tq.Epsilon = 0.0005, 0.0005
	if routes, err := e.TopRoutes(rq); err != nil || len(routes) == 0 {
		t.Fatalf("routes = %v, %v", routes, err)
	}
	if streets, err := e.TrajectorySOI(tq); err != nil || len(streets) == 0 {
		t.Fatalf("trajectory = %v, %v", streets, err)
	}
}

// TestEngineOneGateForEveryFamily: routes and k-SOI queries share one
// admission gate. With one worker and one queue slot, a route parked on
// its search makes an uncached k-SOI query wait for the slot, a third
// query is shed, and both waiting queries answer once the route ends.
func TestEngineOneGateForEveryFamily(t *testing.T) {
	defer faults.Reset()
	e := trajEngine(t, soi.Config{Workers: 1, QueueDepth: 1, CacheSize: -1})
	route := soi.RouteQuery{
		Src: soi.Point{X: 0, Y: 0}, Dst: soi.Point{X: 0.002, Y: 0.002},
		Keywords: []string{"shop"}, K: 1, Epsilon: 0.0005, Budget: 0.02,
	}
	block := make(chan struct{})
	faults.Activate("traj.search", faults.Fault{Block: block})

	routeDone := make(chan error, 1)
	go func() { _, err := e.TopRoutes(route); routeDone <- err }()
	waitFor(t, func() bool { return faults.Visits("traj.search") >= 1 })

	ksoiDone := make(chan error, 1)
	go func() {
		_, err := e.TopStreets(soi.Query{Keywords: []string{"shop"}, K: 2, Epsilon: 0.0005})
		ksoiDone <- err
	}()
	waitFor(t, func() bool { return e.StatsSnapshot().Engine.QueueDepth == 1 })
	select {
	case err := <-ksoiDone:
		t.Fatalf("k-SOI query answered (%v) while a route held the only slot", err)
	case <-time.After(50 * time.Millisecond):
	}

	// A different query, so it cannot join the waiting one's evaluation.
	if _, err := e.TopStreets(soi.Query{Keywords: []string{"cafe"}, K: 2, Epsilon: 0.0005}); !errors.Is(err, soi.ErrOverloaded) {
		t.Fatalf("third query: err = %v, want ErrOverloaded", err)
	}

	close(block)
	if err := <-routeDone; err != nil {
		t.Fatalf("route: %v", err)
	}
	if err := <-ksoiDone; err != nil {
		t.Fatalf("k-SOI query: %v", err)
	}
	if shed := e.StatsSnapshot().Engine.Shed; shed != 1 {
		t.Fatalf("engine shed = %d, want 1", shed)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}
