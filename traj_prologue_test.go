package soi_test

import (
	"context"
	"errors"
	"testing"
	"time"

	soi "repro"
)

// A whole-network budget puts a route query's cost in the work before
// the first expansion — two Dijkstra runs and one interest fold per
// reachable segment. That work must observe the query's context like
// the search proper: a context that is already dead stops it before a
// vertex is settled or a segment folded, and the outcome is counted.
func TestEngineRoutePrologueObservesContext(t *testing.T) {
	q := soi.RouteQuery{
		Src: soi.Point{X: 0, Y: 0}, Dst: soi.Point{X: 0.002, Y: 0.002},
		Keywords: []string{"shop"}, K: 2, Epsilon: 0.0005, Budget: 1000,
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	expired, stop := context.WithTimeout(context.Background(), time.Millisecond)
	defer stop()
	<-expired.Done()

	e := trajEngine(t, soi.Config{})
	if _, err := e.TopRoutesCtx(cancelled, q); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled context: err = %v, want context.Canceled", err)
	}
	if _, err := e.TopRoutesCtx(expired, q); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired deadline: err = %v, want context.DeadlineExceeded", err)
	}
	snap := e.StatsSnapshot().Traj
	if snap.Cancelled != 1 || snap.DeadlineExceeded != 1 {
		t.Fatalf("outcomes not counted: %+v", snap)
	}
	if snap.VerticesSettled != 0 || snap.SegmentsFolded != 0 || snap.Expansions != 0 {
		t.Fatalf("work under dead contexts: %+v", snap)
	}

	// The same query under a live context walks the whole 3×3 grid from
	// both ends and folds all twelve segments.
	if routes, err := e.TopRoutesCtx(context.Background(), q); err != nil || len(routes) == 0 {
		t.Fatalf("live context: routes=%d err=%v", len(routes), err)
	}
	snap = e.StatsSnapshot().Traj
	if snap.VerticesSettled != 18 || snap.SegmentsFolded != 12 || snap.Expansions == 0 {
		t.Fatalf("whole-network query: %+v, want 18 settled, 12 folded", snap)
	}
}
