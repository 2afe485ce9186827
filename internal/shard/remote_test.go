package shard

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/remote"
)

// fakeQuerier is the world's own querier behind per-shard failure
// switches and a per-shard call counter — the coordinator's decision
// logic under a perfectly controllable network. There is one way to lose
// a shard: its one call fails.
type fakeQuerier struct {
	RemoteQuerier
	dead  map[int]bool
	calls []atomic.Int32 // Query calls, by shard
	// wedge, when non-nil, parks every call until its context is done.
	wedge chan struct{}
}

func newFakeQuerier(w *World) *fakeQuerier {
	return &fakeQuerier{RemoteQuerier: w.Querier(), dead: map[int]bool{}, calls: make([]atomic.Int32, len(w.Shards))}
}

var errFakeDown = errors.New("fake shard down")

func (f *fakeQuerier) Query(ctx context.Context, shard int, q core.Query) (*remote.QueryResponse, error) {
	f.calls[shard].Add(1)
	if f.wedge != nil {
		select {
		case <-f.wedge:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if f.dead[shard] {
		return nil, errFakeDown
	}
	return f.RemoteQuerier.Query(ctx, shard, q)
}

// wantCalls fails unless every shard was called exactly per times since
// the last check, and resets the counters.
func (f *fakeQuerier) wantCalls(t *testing.T, what string, per int32) {
	t.Helper()
	for i := range f.calls {
		if n := f.calls[i].Swap(0); n != per {
			t.Errorf("%s: shard %d got %d Query calls, want %d", what, i, n, per)
		}
	}
}

// mergeLive computes the expected degraded answer: the exact merged
// top-k of every live shard's local evaluation.
func mergeLive(t *testing.T, w *World, q core.Query, dead map[int]bool) []core.StreetResult {
	t.Helper()
	var merged []core.StreetResult
	for _, s := range w.Shards {
		if dead[s.ID] {
			continue
		}
		res, _, err := s.Index.SOIContext(context.Background(), q, core.CostAware, nil)
		if err != nil {
			t.Fatal(err)
		}
		remote.GlobalIDs(res, s.Streets, s.Segments)
		merged = append(merged, res...)
	}
	core.SortResults(merged)
	if len(merged) > q.K {
		merged = merged[:q.K]
	}
	return merged
}

// TestRemoteCoordinatorMatchesInProcess: with every shard reachable the
// remote coordinator must be bit-identical to the in-process one —
// same results, same deterministic gather counters, no degradation.
func TestRemoteCoordinatorMatchesInProcess(t *testing.T) {
	for _, tiles := range []int{1, 2, 4, 9} {
		t.Run(fmt.Sprintf("tiles=%d", tiles), func(t *testing.T) {
			net, pois := tinyWorld(t, 7)
			w, err := Partition(net, pois, Config{Tiles: tiles, Halo: 0.0012, CellSize: 0.0005})
			if err != nil {
				t.Fatal(err)
			}
			q := core.Query{Keywords: []string{"shop", "food"}, K: 5, Epsilon: 0.0005}
			want, wantGS, err := NewCoordinator(w).TopK(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			rc := NewRemoteCoordinator(w.Querier(), w.Halo)
			got, g, err := rc.TopK(context.Background(), q, false)
			if err != nil {
				t.Fatal(err)
			}
			if g.Degraded || len(g.MissingShards) != 0 {
				t.Fatalf("fully-reachable run degraded: %+v", g)
			}
			if d := diffResults(got, want); d != "" {
				t.Errorf("remote diverged from in-process: %s", d)
			}
			if g.ShardsTotal != wantGS.ShardsTotal || g.ShardsEvaluated != wantGS.ShardsEvaluated ||
				g.ShardsPruned != wantGS.ShardsPruned {
				t.Errorf("gather counters diverged: remote %+v, in-process %+v", g.GatherStats, wantGS)
			}
		})
	}
}

// TestRemoteCoordinatorSingleShardLossInvariant is the degradation
// contract, exhaustively: for every shard i, losing it tags the answer —
// a shard's bound rides on its answer, so nothing proves a lost shard
// prunable — and the tagged answer is exactly the merged top-k of the
// shards that answered. Never wrong, never hanging, never silent.
func TestRemoteCoordinatorSingleShardLossInvariant(t *testing.T) {
	net, pois := tinyWorld(t, 7)
	w, err := Partition(net, pois, Config{Tiles: 9, Halo: 0.0012, CellSize: 0.0005})
	if err != nil {
		t.Fatal(err)
	}
	q := core.Query{Keywords: []string{"shop", "food"}, K: 5, Epsilon: 0.0005}
	oracle, oracleGS, err := NewCoordinator(w).TopK(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	// All shards answer ⇒ bit-identical and untagged.
	got, g, err := NewRemoteCoordinator(newFakeQuerier(w), w.Halo).TopK(context.Background(), q, true)
	if err != nil {
		t.Fatal(err)
	}
	if g.Degraded || len(g.MissingShards) != 0 ||
		g.ShardsEvaluated != oracleGS.ShardsEvaluated || g.ShardsPruned != oracleGS.ShardsPruned {
		t.Errorf("no loss: gather %+v, want untagged with %+v", g, oracleGS)
	}
	if d := diffResults(got, oracle); d != "" {
		t.Errorf("no loss: %s", d)
	}
	for i := range w.Shards {
		fq := newFakeQuerier(w)
		fq.dead[i] = true
		rc := NewRemoteCoordinator(fq, w.Halo)
		got, g, err := rc.TopK(context.Background(), q, true)
		if err != nil {
			t.Fatalf("shard %d lost: %v", i, err)
		}
		if n := g.ShardsEvaluated + g.ShardsPruned + len(g.MissingShards); n != g.ShardsTotal {
			t.Errorf("shard %d lost: counters do not partition: eval %d + pruned %d + missing %d != %d",
				i, g.ShardsEvaluated, g.ShardsPruned, len(g.MissingShards), g.ShardsTotal)
		}
		if !g.Degraded || len(g.MissingShards) != 1 || g.MissingShards[0] != i {
			t.Errorf("shard %d lost: degraded=%v missing=%v, want tagged with [%d]", i, g.Degraded, g.MissingShards, i)
		}
		want := mergeLive(t, w, q, map[int]bool{i: true})
		if d := diffResults(got, want); d != "" {
			t.Errorf("shard %d lost: degraded answer is not the exact live merge: %s", i, d)
		}

		// The same loss without the partial opt-in must refuse with the
		// typed 503, not serve the degraded answer silently.
		_, _, err = rc.TopK(context.Background(), q, false)
		if !errors.Is(err, ErrShardsUnavailable) {
			t.Errorf("shard %d lost without partial: err = %v, want ErrShardsUnavailable", i, err)
		}
		var ue *UnavailableError
		if !errors.As(err, &ue) {
			t.Errorf("shard %d lost: error is not *UnavailableError", i)
		} else if ue.HTTPStatus() != http.StatusServiceUnavailable || len(ue.Missing) != 1 || ue.Missing[0] != i {
			t.Errorf("shard %d lost: HTTPStatus = %d missing = %v, want 503 naming [%d]", i, ue.HTTPStatus(), ue.Missing, i)
		}
	}
}

// TestRemoteCoordinatorMultiShardLoss: losing several shards at once
// degrades with all of them listed, ascending.
func TestRemoteCoordinatorMultiShardLoss(t *testing.T) {
	net, pois := tinyWorld(t, 7)
	w, err := Partition(net, pois, Config{Tiles: 4, Halo: 0.0012, CellSize: 0.0005})
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Shards) < 3 {
		t.Skip("fixture produced fewer than 3 shards")
	}
	q := core.Query{Keywords: []string{"shop", "food"}, K: 5, Epsilon: 0.0005}
	fq := newFakeQuerier(w)
	fq.dead[0], fq.dead[2] = true, true
	got, g, err := NewRemoteCoordinator(fq, w.Halo).TopK(context.Background(), q, true)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Degraded || !reflect.DeepEqual(g.MissingShards, []int{0, 2}) {
		t.Errorf("degraded=%v missing=%v, want tagged with [0 2]", g.Degraded, g.MissingShards)
	}
	if d := diffResults(got, mergeLive(t, w, q, fq.dead)); d != "" {
		t.Errorf("multi-loss degraded answer wrong: %s", d)
	}
	// All shards lost: an empty but well-formed degraded answer.
	all := newFakeQuerier(w)
	for i := range w.Shards {
		all.dead[i] = true
	}
	got, g, err = NewRemoteCoordinator(all, w.Halo).TopK(context.Background(), q, true)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Degraded || len(g.MissingShards) != len(w.Shards) || len(got) != 0 {
		t.Errorf("all-lost: got %d results, degraded=%v missing=%v", len(got), g.Degraded, g.MissingShards)
	}
}

// TestGatherOneQueryPerShard pins the round count: whatever way a run
// ends, gather made exactly one Query call per shard — the interface
// offers nothing else to call — and joined every goroutine it started.
func TestGatherOneQueryPerShard(t *testing.T) {
	net, pois := tinyWorld(t, 42)
	w, err := Partition(net, pois, Config{Tiles: 9, Halo: 0.0012, CellSize: 0.0005})
	if err != nil {
		t.Fatal(err)
	}
	// Ψ={education} leaves zero-bound shards in this world, and the golden
	// query pruned ones: neither kind is asked twice, or skipped.
	for _, q := range []core.Query{goldenQuery(), {Keywords: []string{"education"}, K: 3, Epsilon: 0.0005}} {
		fq := newFakeQuerier(w)
		rc := NewRemoteCoordinator(fq, w.Halo)
		before := runtime.NumGoroutine()

		_, g, err := rc.TopK(context.Background(), q, false)
		if err != nil || g.Degraded {
			t.Fatalf("%v clean: err=%v gather=%+v", q.Keywords, err, g)
		}
		if g.ShardsPruned == 0 {
			t.Errorf("%v: fixture prunes no shard", q.Keywords)
		}
		fq.wantCalls(t, "clean", 1)

		fq.dead[1] = true
		if _, g, err = rc.TopK(context.Background(), q, true); err != nil || !g.Degraded {
			t.Fatalf("%v degraded: err=%v gather=%+v", q.Keywords, err, g)
		}
		fq.wantCalls(t, "degraded", 1)
		if _, _, err = rc.TopK(context.Background(), q, false); !errors.Is(err, ErrShardsUnavailable) {
			t.Fatalf("%v refused: err=%v", q.Keywords, err)
		}
		fq.wantCalls(t, "refused", 1)

		// Cancelled with every call in flight: the context error, still
		// one call each, nobody left behind.
		fq.wedge = make(chan struct{})
		ctx, cancel := context.WithCancel(context.Background())
		errc := make(chan error, 1)
		go func() {
			_, _, err := rc.TopK(ctx, q, true)
			errc <- err
		}()
		for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
			entered := 0
			for i := range fq.calls {
				entered += int(fq.calls[i].Load())
			}
			if entered == len(w.Shards) {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("only %d of %d shards were called", entered, len(w.Shards))
			}
		}
		cancel()
		if err := <-errc; !errors.Is(err, context.Canceled) {
			t.Fatalf("%v cancelled: err=%v, want context.Canceled", q.Keywords, err)
		}
		fq.wantCalls(t, "cancelled", 1)
		checkNoLeaks(t, before)
	}
}

// TestRemoteCoordinatorValidation: query validation and the ε ceiling
// fire before any network call.
func TestRemoteCoordinatorValidation(t *testing.T) {
	net, pois := tinyWorld(t, 7)
	w, err := Partition(net, pois, Config{Tiles: 2, Halo: 0.001, CellSize: 0.0005})
	if err != nil {
		t.Fatal(err)
	}
	rc := NewRemoteCoordinator(w.Querier(), w.Halo)
	if _, _, err := rc.TopK(context.Background(), core.Query{Keywords: []string{"x"}, K: 0, Epsilon: 0.0005}, false); err == nil {
		t.Error("k=0 accepted")
	}
	_, _, err = rc.TopK(context.Background(), core.Query{Keywords: []string{"x"}, K: 5, Epsilon: 0.01}, false)
	if !errors.Is(err, ErrEpsilonExceedsHalo) {
		t.Errorf("ε>halo: err = %v, want ErrEpsilonExceedsHalo", err)
	}
}

// TestRemoteCoordinatorPermanentErrorNotDegraded: a shard answering
// with a permanent (4xx-class) error marks the request broken — it must
// fail the call even with partial allowed, not hide behind degradation.
func TestRemoteCoordinatorPermanentErrorNotDegraded(t *testing.T) {
	net, pois := tinyWorld(t, 7)
	w, err := Partition(net, pois, Config{Tiles: 2, Halo: 0.0012, CellSize: 0.0005})
	if err != nil {
		t.Fatal(err)
	}
	pq := &permanentQuerier{w.Querier()}
	rc := NewRemoteCoordinator(pq, w.Halo)
	q := core.Query{Keywords: []string{"shop"}, K: 5, Epsilon: 0.0005}
	_, _, err = rc.TopK(context.Background(), q, true)
	var se *ShardError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want *ShardError wrapping the permanent error", err)
	}
	var pe *remote.PermanentError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v does not carry the *remote.PermanentError", err)
	}
}

// permanentQuerier fails every call with a permanent 400.
type permanentQuerier struct{ RemoteQuerier }

func (p *permanentQuerier) Query(ctx context.Context, shard int, q core.Query) (*remote.QueryResponse, error) {
	return nil, &remote.PermanentError{Status: http.StatusBadRequest, Msg: "broken request"}
}
