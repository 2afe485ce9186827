package engine

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/stats"
)

// robustQuery is a valid query distinct from testQueries so chaos tests
// don't collide with cached results from other tests' executors.
func robustQuery(k int) core.Query {
	return core.Query{Keywords: []string{"shop", "museum"}, K: k, Epsilon: 0.22}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestExpiredContextSkipsEvaluation: a context that is already past its
// deadline must fail with context.DeadlineExceeded before the SOI
// algorithm runs — the Evaluations counter stays put and the deadline
// counter accounts the query.
func TestExpiredContextSkipsEvaluation(t *testing.T) {
	rec := stats.NewRecorder()
	e := New(buildIndex(t), Config{Recorder: rec})
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	res := e.DoCtx(ctx, robustQuery(3))
	if !errors.Is(res.Err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", res.Err)
	}
	m := e.Recorder().Snapshot().Engine
	if m.Evaluations != 0 {
		t.Fatalf("evaluations = %d, want 0 (expired query must not evaluate)", m.Evaluations)
	}
	if m.DeadlineExceeded != 1 {
		t.Fatalf("deadline counter = %d, want 1", m.DeadlineExceeded)
	}
	if got := rec.Snapshot().Engine.DeadlineExceeded; got != 1 {
		t.Fatalf("recorder deadline counter = %d, want 1", got)
	}
}

// TestQueryTimeoutCutsLongEvaluation: the engine-level QueryTimeout must
// cut an evaluation wedged inside the algorithm (a Block fault at the
// core filter checkpoint) and report context.DeadlineExceeded promptly.
func TestQueryTimeoutCutsLongEvaluation(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	faults.Activate(core.SiteFilter, faults.Fault{Block: block})
	defer faults.Deactivate(core.SiteFilter)

	e := New(buildIndex(t), Config{QueryTimeout: 50 * time.Millisecond})
	done := make(chan Result, 1)
	go func() { done <- e.Do(robustQuery(3)) }()
	select {
	case res := <-done:
		if !errors.Is(res.Err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want context.DeadlineExceeded", res.Err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("QueryTimeout did not cut the wedged evaluation")
	}
	if m := e.Recorder().Snapshot().Engine; m.DeadlineExceeded != 1 {
		t.Fatalf("deadline counter = %d, want 1", m.DeadlineExceeded)
	}
}

// TestCacheHitArmsNoDeadline: the per-query deadline is armed only after
// the result cache misses. A hit under a QueryTimeout and a cancellable
// parent context registers no timer context on the parent — four
// allocations per hit — and a miss that joins an in-flight evaluation
// still waits under the deadline.
func TestCacheHitArmsNoDeadline(t *testing.T) {
	const timeout = 100 * time.Millisecond
	e := New(buildIndex(t), Config{QueryTimeout: timeout})
	q := robustQuery(3)
	if res := e.Do(q); res.Err != nil {
		t.Fatal(res.Err)
	}
	parent, cancel := context.WithCancel(context.Background())
	defer cancel()
	if !raceEnabled {
		allocs := testing.AllocsPerRun(100, func() {
			if res := e.DoCtx(parent, q); res.Err != nil || !res.Cached {
				t.Fatalf("hit: cached %v, err %v", res.Cached, res.Err)
			}
		})
		// Building the cache key: the keyword slice, ε's text and the
		// builder as it grows. The timer context does not fit.
		if ceiling := 5.0; allocs > ceiling {
			t.Errorf("a cache hit makes %.0f allocations, ceiling %.0f", allocs, ceiling)
		}
		t.Logf("%.0f allocations per cache hit", allocs)
	}

	// A leader that never finishes: the joiner must give up at its own
	// deadline, not wait for the leader.
	jq := robustQuery(4)
	e.flightMu.Lock()
	e.flight[queryKey(jq, 0)] = &flight{done: make(chan struct{})}
	e.flightMu.Unlock()
	start := time.Now()
	done := make(chan Result, 1)
	go func() { done <- e.DoCtx(parent, jq) }()
	select {
	case res := <-done:
		if !errors.Is(res.Err, context.DeadlineExceeded) {
			t.Fatalf("joined miss: err = %v, want context.DeadlineExceeded", res.Err)
		}
		if took := time.Since(start); took < timeout {
			t.Fatalf("joined miss gave up after %v, before its %v deadline", took, timeout)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("a joined miss waited past its deadline for a wedged leader")
	}
}

// TestCancellationObservedAtCheckpoint: cancelling the caller's context
// while the evaluation is parked inside the filter loop must return
// context.Canceled with bounded latency and bump the cancelled counter.
func TestCancellationObservedAtCheckpoint(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	faults.Activate(core.SiteFilter, faults.Fault{Block: block})
	defer faults.Deactivate(core.SiteFilter)

	e := New(buildIndex(t), Config{})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan Result, 1)
	go func() { done <- e.DoCtx(ctx, robustQuery(3)) }()
	waitFor(t, "filter checkpoint visit", func() bool { return faults.Visits(core.SiteFilter) > 0 })
	cancel()
	select {
	case res := <-done:
		if !errors.Is(res.Err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", res.Err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancellation was not observed at a checkpoint")
	}
	if m := e.Recorder().Snapshot().Engine; m.Cancelled != 1 {
		t.Fatalf("cancelled counter = %d, want 1", m.Cancelled)
	}
}

// TestShedWhenQueueFull: with one worker wedged and the wait queue at
// depth, the next query must be shed immediately with ErrOverloaded
// instead of queueing, and every admitted query must complete once the
// worker unwedges.
func TestShedWhenQueueFull(t *testing.T) {
	block := make(chan struct{})
	faults.Activate(SiteEvaluate, faults.Fault{Block: block})
	defer faults.Deactivate(SiteEvaluate)

	rec := stats.NewRecorder()
	e := New(buildIndex(t), Config{Workers: 1, QueueDepth: 1, CacheSize: -1, Recorder: rec})

	// q1 takes the only worker slot and parks at the evaluate site.
	r1 := make(chan Result, 1)
	go func() { r1 <- e.Do(robustQuery(1)) }()
	waitFor(t, "worker wedged", func() bool { return faults.Visits(SiteEvaluate) > 0 })

	// q2 (a distinct query, so it cannot dedup-join q1) fills the queue.
	r2 := make(chan Result, 1)
	go func() { r2 <- e.Do(robustQuery(2)) }()
	waitFor(t, "queue occupied", func() bool { return e.gate.queued.Load() == 1 })

	// q3 finds the queue full and must be shed synchronously.
	res := e.Do(robustQuery(3))
	if !errors.Is(res.Err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", res.Err)
	}

	close(block) // unwedge: both admitted queries must finish cleanly
	for i, ch := range []chan Result{r1, r2} {
		select {
		case r := <-ch:
			if r.Err != nil {
				t.Fatalf("admitted query %d failed after unwedge: %v", i+1, r.Err)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("admitted query %d never completed", i+1)
		}
	}
	if m := e.Recorder().Snapshot().Engine; m.Shed != 1 {
		t.Fatalf("shed counter = %d, want 1", m.Shed)
	}
	if got := rec.Snapshot().Engine.Shed; got != 1 {
		t.Fatalf("recorder shed counter = %d, want 1", got)
	}
}

// TestShedOnMaxQueueWait: an admitted query whose queue wait exceeds
// MaxQueueWait is shed with ErrOverloaded rather than waiting forever.
func TestShedOnMaxQueueWait(t *testing.T) {
	block := make(chan struct{})
	faults.Activate(SiteEvaluate, faults.Fault{Block: block})
	defer faults.Deactivate(SiteEvaluate)

	e := New(buildIndex(t), Config{Workers: 1, MaxQueueWait: 20 * time.Millisecond, CacheSize: -1})
	r1 := make(chan Result, 1)
	go func() { r1 <- e.Do(robustQuery(1)) }()
	waitFor(t, "worker wedged", func() bool { return faults.Visits(SiteEvaluate) > 0 })

	res := e.Do(robustQuery(2))
	if !errors.Is(res.Err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded after max queue wait", res.Err)
	}
	close(block)
	if r := <-r1; r.Err != nil {
		t.Fatalf("wedged query failed after unwedge: %v", r.Err)
	}
	if m := e.Recorder().Snapshot().Engine; m.Shed != 1 {
		t.Fatalf("shed counter = %d, want 1", m.Shed)
	}
}

// TestPanicRecoveredIsolatedPerQuery: an injected evaluation panic must
// surface as a per-query *PanicError, bump the panics counter, release
// the worker slot, and leave the executor serving — a follow-up of the
// same query (re-evaluated, since errors are never cached) succeeds.
func TestPanicRecoveredIsolatedPerQuery(t *testing.T) {
	faults.Activate(SiteEvaluate, faults.Fault{Panic: true, PanicValue: "chaos", Times: 1})
	defer faults.Deactivate(SiteEvaluate)

	rec := stats.NewRecorder()
	e := New(buildIndex(t), Config{Workers: 1, Recorder: rec})
	res := e.Do(robustQuery(3))
	var pe *PanicError
	if !errors.As(res.Err, &pe) {
		t.Fatalf("err = %v, want *PanicError", res.Err)
	}
	if pe.Value != "chaos" {
		t.Fatalf("panic value = %v, want %q", pe.Value, "chaos")
	}
	if m := e.Recorder().Snapshot().Engine; m.PanicsRecovered != 1 {
		t.Fatalf("panics counter = %d, want 1", m.PanicsRecovered)
	}
	if got := rec.Snapshot().Engine.PanicsRecovered; got != 1 {
		t.Fatalf("recorder panics counter = %d, want 1", got)
	}
	// The slot was released and the flight entry cleared: the retry runs.
	retry := e.Do(robustQuery(3))
	if retry.Err != nil {
		t.Fatalf("retry after recovered panic failed: %v", retry.Err)
	}
	if retry.Cached {
		t.Fatal("retry reported Cached, but errored results must never be cached")
	}
}

// TestDedupJoinedErrorNotCached is the regression test for the eval bug
// where a joiner inheriting a leader's *error* still reported
// Cached: true. The join branch is driven directly: a finished flight
// carrying an error is planted in the in-flight table, and the joining
// query must report the error with Cached false while still counting as
// a dedup join.
func TestDedupJoinedErrorNotCached(t *testing.T) {
	e := New(buildIndex(t), Config{})
	q := robustQuery(4)
	boom := errors.New("evaluation failed")
	f := &flight{done: make(chan struct{})}
	f.res = Result{Err: boom, Cached: true} // worst case: stale Cached bit
	close(f.done)
	key := queryKey(q, 0)
	e.flightMu.Lock()
	e.flight[key] = f
	e.flightMu.Unlock()
	defer func() {
		e.flightMu.Lock()
		delete(e.flight, key)
		e.flightMu.Unlock()
	}()

	res := e.Do(q)
	if !errors.Is(res.Err, boom) {
		t.Fatalf("err = %v, want the joined flight's error", res.Err)
	}
	if res.Cached {
		t.Fatal("joined errored result reported Cached: true; errors are never cached")
	}
	if m := e.Recorder().Snapshot().Engine; m.DedupJoins != 1 {
		t.Fatalf("dedup hits = %d, want 1", m.DedupJoins)
	}
}

// TestLeaderCancelledJoinerRetries: when a dedup leader is cancelled, a
// joiner whose own context is still live must not inherit the leader's
// context error — it retries the evaluation itself and returns the real
// answer.
func TestLeaderCancelledJoinerRetries(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	// Times: 1 — only the leader parks; the joiner's retry runs through.
	faults.Activate(SiteEvaluate, faults.Fault{Block: block, Times: 1})
	defer faults.Deactivate(SiteEvaluate)

	ix := buildIndex(t)
	e := New(ix, Config{CacheSize: -1})
	q := robustQuery(5)
	want, _, err := ix.SOI(q)
	if err != nil {
		t.Fatal(err)
	}

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leader := make(chan Result, 1)
	go func() { leader <- e.DoCtx(leaderCtx, q) }()
	waitFor(t, "leader wedged", func() bool { return faults.Visits(SiteEvaluate) > 0 })

	joiner := make(chan Result, 1)
	go func() { joiner <- e.Do(q) }()
	// Give the joiner a beat to park on the leader's flight; if it loses
	// the race it simply evaluates as its own leader, which converges on
	// the same asserted outcome.
	time.Sleep(50 * time.Millisecond)
	cancelLeader()

	lres := <-leader
	if !errors.Is(lres.Err, context.Canceled) {
		t.Fatalf("leader err = %v, want context.Canceled", lres.Err)
	}
	select {
	case jres := <-joiner:
		if jres.Err != nil {
			t.Fatalf("joiner inherited the leader's failure: %v", jres.Err)
		}
		sameResults(t, jres.Streets, want)
	case <-time.After(2 * time.Second):
		t.Fatal("joiner never completed after the leader was cancelled")
	}
	if m := e.Recorder().Snapshot().Engine; m.Cancelled != 1 {
		t.Fatalf("cancelled counter = %d, want 1 (leader only)", m.Cancelled)
	}
}

// TestBatchCtxClassifiesPerMember: a batch under an already-expired
// context fails every member with the context error and accounts each in
// the deadline counter.
func TestBatchCtxClassifiesPerMember(t *testing.T) {
	e := New(buildIndex(t), Config{})
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	qs := []core.Query{robustQuery(1), robustQuery(2), {Keywords: []string{"park"}, K: 2, Epsilon: 0.3}}
	out := e.BatchCtx(ctx, qs)
	for i, r := range out {
		if !errors.Is(r.Err, context.DeadlineExceeded) {
			t.Fatalf("batch[%d] err = %v, want context.DeadlineExceeded", i, r.Err)
		}
	}
	m := e.Recorder().Snapshot().Engine
	// robustQuery(1) and robustQuery(2) coalesce into one group, the park
	// query is its own group; classification is per member, not per group.
	if m.DeadlineExceeded != int64(len(qs)) {
		t.Fatalf("deadline counter = %d, want %d (one per batch member)", m.DeadlineExceeded, len(qs))
	}
	if m.Evaluations != 0 {
		t.Fatalf("evaluations = %d, want 0", m.Evaluations)
	}
}
