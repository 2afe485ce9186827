package shard

import (
	"context"
	"errors"
	"math"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/faults"
)

// chaosWorld builds a small partitioned world for fault injection.
func chaosWorld(t *testing.T, tiles int) *Coordinator {
	t.Helper()
	net, pois := tinyWorld(t, 9)
	w, err := Partition(net, pois, Config{Tiles: tiles, Halo: 0.0012, CellSize: 0.0005})
	if err != nil {
		t.Fatal(err)
	}
	return NewCoordinator(w)
}

func chaosQuery() core.Query {
	return core.Query{Keywords: []string{"shop", "food"}, K: 5, Epsilon: 0.0005}
}

// checkNoLeaks fails if the goroutine count has not settled back to the
// pre-test level: the coordinator must join every scatter goroutine on
// every exit path.
func checkNoLeaks(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d before, %d after\n%s", before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestChaosSlowShardStillExact: one shard's evaluation is delayed; the
// answer must still arrive, bit-identical, with identical counters —
// slowness cannot change what gets merged or pruned.
func TestChaosSlowShardStillExact(t *testing.T) {
	defer faults.Reset()
	coord := chaosWorld(t, 4)
	want, wantGS, err := coord.TopK(context.Background(), chaosQuery())
	if err != nil {
		t.Fatal(err)
	}
	// Delay a single scatter visit (the second shard to launch).
	faults.Activate(SiteScatter, faults.Fault{Delay: 50 * time.Millisecond, After: 1, Times: 1})
	before := runtime.NumGoroutine()
	got, gs, err := coord.TopK(context.Background(), chaosQuery())
	if err != nil {
		t.Fatalf("slow shard: %v", err)
	}
	if d := diffResults(got, want); d != "" {
		t.Errorf("slow shard changed the answer: %s", d)
	}
	if gs.ShardsTotal != wantGS.ShardsTotal || gs.ShardsEvaluated != wantGS.ShardsEvaluated || gs.ShardsPruned != wantGS.ShardsPruned {
		t.Errorf("slow shard changed counters: %+v vs %+v", gs, wantGS)
	}
	checkNoLeaks(t, before)
}

// TestChaosPanickingShard: a shard evaluation panics; TopK must return
// a typed *ShardError wrapping *engine.PanicError, join every
// goroutine, and leave the coordinator usable for the next query.
func TestChaosPanickingShard(t *testing.T) {
	defer faults.Reset()
	coord := chaosWorld(t, 4)
	// Every shard panics, so the first gathered shard — which is never
	// pruned while the merged set is empty — deterministically reports.
	faults.Activate(SiteScatter, faults.Fault{Panic: true, PanicValue: "shard blew up"})
	before := runtime.NumGoroutine()
	_, _, err := coord.TopK(context.Background(), chaosQuery())
	if err == nil {
		t.Fatal("expected an error from the panicking shard")
	}
	var se *ShardError
	if !errors.As(err, &se) {
		t.Fatalf("error %T is not a *ShardError: %v", err, err)
	}
	var pe *engine.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error %v does not wrap *engine.PanicError", err)
	}
	if pe.Value != "shard blew up" {
		t.Errorf("panic value = %v", pe.Value)
	}
	checkNoLeaks(t, before)

	// Panic isolation: the same coordinator keeps answering once the
	// fault is gone.
	faults.Reset()
	if _, _, err := coord.TopK(context.Background(), chaosQuery()); err != nil {
		t.Fatalf("coordinator unusable after panic: %v", err)
	}
}

// TestChaosCancelledMidGather: the caller's context is cancelled while
// a shard is wedged at the scatter site; TopK must return
// context.Canceled promptly and join the wedged goroutine once the
// block clears.
func TestChaosCancelledMidGather(t *testing.T) {
	defer faults.Reset()
	coord := chaosWorld(t, 4)
	// Wedge every shard, so the gather is guaranteed to be parked on a
	// shard when the cancellation lands.
	block := make(chan struct{})
	faults.Activate(SiteScatter, faults.Fault{Block: block})
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, _, err := coord.TopK(ctx, chaosQuery())
		errc <- err
	}()
	// Let the scatter goroutines park, then pull the plug.
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-errc:
		// InjectCtx unblocks on context cancellation, so the wedged
		// shard reports Canceled — either via the gather wait or the
		// shard's own error, both wrapping context.Canceled.
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled gather returned %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("TopK did not return after cancellation")
	}
	close(block)
	checkNoLeaks(t, before)
}

// TestChaosGatherSiteCancelled: cancellation observed at the gather
// site itself (not inside a shard) also exits with the context error
// and no leaks.
func TestChaosGatherSiteCancelled(t *testing.T) {
	defer faults.Reset()
	coord := chaosWorld(t, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	faults.Activate(SiteGather, faults.Fault{Delay: time.Millisecond})
	before := runtime.NumGoroutine()
	_, _, err := coord.TopK(ctx, chaosQuery())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	checkNoLeaks(t, before)
}

// TestChaosWedgedShardBoundedByDeadline: one round waits for every
// shard, so a shard wedged forever — here the one the golden counters say
// is pruned last (seed 42, 4 tiles → 2 pruned), which a two-round gather
// never waited for — holds the run until the caller's deadline, and no
// longer. The run then ends in the context's error with no answer, never
// a ranking that silently lacks the shard, and every goroutine is joined.
func TestChaosWedgedShardBoundedByDeadline(t *testing.T) {
	defer faults.Reset()
	net, pois := tinyWorld(t, 42)
	w, err := Partition(net, pois, Config{Tiles: 4, Halo: 0.0012, CellSize: 0.0005})
	if err != nil {
		t.Fatal(err)
	}
	coord := NewCoordinator(w)
	q := goldenQuery()
	want, wantGS, err := coord.TopK(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if wantGS.ShardsPruned != 2 {
		t.Fatalf("pruned = %d, want the golden 2", wantGS.ShardsPruned)
	}

	// Gather order is (UB desc, id asc): the shard reached last.
	last := w.Shards[0]
	lastUB, err := last.Index.UnseenBound(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range w.Shards[1:] {
		ub, err := s.Index.UnseenBound(q)
		if err != nil {
			t.Fatal(err)
		}
		if ub <= lastUB {
			last, lastUB = s, ub
		}
	}
	block := make(chan struct{})
	site := faults.KeyedSite(SiteScatter, last.ID)
	faults.Activate(site, faults.Fault{Block: block})
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	got, _, err := coord.TopK(ctx, q)
	if !errors.Is(err, context.DeadlineExceeded) || got != nil {
		t.Fatalf("wedged shard: %d results, err = %v; want none and context.DeadlineExceeded", len(got), err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("wedged shard held the run %v past a 100ms deadline", d)
	}
	if n := faults.Fired(site); n != 1 {
		t.Errorf("wedge fired %d times, want exactly the one shard", n)
	}
	checkNoLeaks(t, before)

	// Unwedged, the same coordinator answers as before.
	close(block)
	got, gs, err := coord.TopK(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if d := diffResults(got, want); d != "" {
		t.Errorf("after the wedge: %s", d)
	}
	if gs.ShardsEvaluated != wantGS.ShardsEvaluated || gs.ShardsPruned != wantGS.ShardsPruned {
		t.Errorf("after the wedge: counters %+v, want %+v", gs, wantGS)
	}
}

// TestZeroBoundShardsAreNotEvaluated: a shard with no query-relevant mass
// (static bound 0) is called like every other shard but answers without
// evaluating — no results, zero Stats (an evaluation would at least size
// its search space), neither of Algorithm 1's checkpoints visited — and
// is pruned at its gather position, so the counters stay what they were
// when such shards were never called (seed 42, Ψ={education}: 2 of 4
// shards hold none, 3 of 6 at 9 tiles).
func TestZeroBoundShardsAreNotEvaluated(t *testing.T) {
	defer faults.Reset()
	net, pois := tinyWorld(t, 42)
	q := core.Query{Keywords: []string{"education"}, K: 3, Epsilon: 0.0005}
	for tiles, want := range map[int]GatherStats{
		4: {ShardsTotal: 4, ShardsEvaluated: 2, ShardsPruned: 2},
		9: {ShardsTotal: 6, ShardsEvaluated: 3, ShardsPruned: 3},
	} {
		w, err := Partition(net, pois, Config{Tiles: tiles, Halo: 0.0012, CellSize: 0.0005})
		if err != nil {
			t.Fatal(err)
		}
		zero := 0
		for _, s := range w.Shards {
			ub, err := s.Index.UnseenBound(q)
			if err != nil {
				t.Fatal(err)
			}
			// An armed site counts its visits; the empty fault does nothing.
			faults.Activate(core.SiteFilter, faults.Fault{})
			faults.Activate(core.SiteRefine, faults.Fault{})
			resp, err := w.Querier().Query(context.Background(), s.ID, q)
			if err != nil {
				t.Fatal(err)
			}
			visits := faults.Visits(core.SiteFilter) + faults.Visits(core.SiteRefine)
			faults.Reset()
			if resp.Shard != s.ID || math.Float64bits(resp.UB) != math.Float64bits(ub) {
				t.Errorf("tiles=%d shard %d: answer {shard %d, ub %v}, want ub %v", tiles, s.ID, resp.Shard, resp.UB, ub)
			}
			if ub == 0 {
				zero++
				if resp.Results != nil || resp.Stats != (core.Stats{}) || visits != 0 {
					t.Errorf("tiles=%d shard %d (ub=0): %d results, stats %+v, %d checkpoint visits; want no evaluation",
						tiles, s.ID, len(resp.Results), resp.Stats, visits)
				}
			} else if resp.Stats.TotalSegments == 0 || visits == 0 {
				t.Errorf("tiles=%d shard %d (ub=%v): stats %+v, %d checkpoint visits; want an evaluation", tiles, s.ID, ub, resp.Stats, visits)
			}
		}
		if zero == 0 {
			t.Errorf("tiles=%d: fixture has no zero-bound shard", tiles)
		}
		_, gs, err := NewCoordinator(w).TopK(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if gs.ShardsTotal != want.ShardsTotal || gs.ShardsEvaluated != want.ShardsEvaluated || gs.ShardsPruned != want.ShardsPruned {
			t.Errorf("tiles=%d: counters %+v, want %+v", tiles, gs, want)
		}
	}
}

// TestInProcessShardFailureIsNotUnavailable: an in-process shard that
// fails is a broken program, not an unreachable peer — the error is a
// *ShardError carrying the cause, never the retryable
// ErrShardsUnavailable the remote tier degrades or refuses with.
func TestInProcessShardFailureIsNotUnavailable(t *testing.T) {
	defer faults.Reset()
	coord := chaosWorld(t, 4)
	boom := errors.New("shard evaluation failed")
	faults.Activate(SiteScatter, faults.Fault{Err: boom})
	before := runtime.NumGoroutine()
	_, _, err := coord.TopK(context.Background(), chaosQuery())
	var se *ShardError
	if !errors.As(err, &se) || !errors.Is(err, boom) {
		t.Fatalf("err = %v, want a *ShardError wrapping the shard's failure", err)
	}
	if errors.Is(err, ErrShardsUnavailable) {
		t.Fatalf("in-process failure reported as ErrShardsUnavailable: %v", err)
	}
	checkNoLeaks(t, before)
}
