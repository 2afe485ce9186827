package shard

import (
	"context"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/remote"
)

// shardRun is one shard's place in the gather order and, for a shard
// that was launched, its speculative evaluation.
type shardRun struct {
	id     int
	ub     float64
	cancel context.CancelFunc // nil for a shard that was never launched
	done   chan struct{}
	resp   *remote.QueryResponse
	err    error
}

// recoverInto turns a panic of the deferring goroutine into a per-shard
// *engine.PanicError.
func recoverInto(err *error) {
	if v := recover(); v != nil {
		*err = &engine.PanicError{Value: v}
	}
}

// gather is the scatter-gather run both coordinators are adapters of:
// fetch every shard's static upper bound, order the shards by (bound
// desc, shard id asc), evaluate them speculatively in parallel, and walk
// the order sequentially deciding prune-or-merge for shard i before
// looking at shard i+1.
//
// Determinism: evaluations finish in whatever order the scheduler and
// the network allow, but the decision sequence ⟨LB_k after 0 merges,
// after 1 merge, …⟩ is a pure function of the query, the partition and
// the set of shards that answered, so the pruned set — and with it
// GatherStats — never depends on which goroutine finishes first. Pruning
// uses the strict test UB_i < LB_k of the paper (plus UB_i = 0 for
// shards with no query-relevant mass, which are not even launched): a
// shard tying the bound is still evaluated, exactly as Algorithm 1 keeps
// draining ties at UB = LBk, so equal-interest streets beyond position k
// are ranked by the same (interest desc, id asc) order the single index
// uses.
//
// Failures: degradable reports whether a shard's error is the shard's
// fault (it stayed unreachable) rather than the request's or the
// program's. A non-degradable error fails the run as a *ShardError. A
// degradable one marks the shard missing: with allowPartial the run goes
// on without it and the answer is tagged, otherwise it ends in an
// *UnavailableError. A shard whose bound never arrived is always missing
// (nothing proves it prunable); a shard that failed after its bound
// arrived is missing only if, at its position in the order, the merged
// LB_k did not already dominate its bound. Missing shards add nothing to
// LB_k, so every later prune decision is conservative: a degraded answer
// is a subset of the oracle's candidates, never a wrong ranking of them.
//
// Every launched goroutine is joined before gather returns, on success,
// error and cancellation paths alike — no leaks, no writes after return.
func gather(ctx context.Context, qr RemoteQuerier, q core.Query, allowPartial bool, degradable func(error) bool) ([]core.StreetResult, RemoteGather, error) {
	n := qr.Shards()
	g := RemoteGather{GatherStats: GatherStats{ShardsTotal: n}}

	// Phase 1 — bounds, in parallel.
	all := make([]shardRun, n)
	var wg sync.WaitGroup
	for i := range all {
		r := &all[i]
		r.id = i
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer recoverInto(&r.err)
			r.ub, r.err = qr.Bound(ctx, r.id, q)
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, g, err
	}
	// runs keeps, in place, the shards whose bound arrived.
	var lastMiss error
	runs := all[:0]
	for _, r := range all {
		switch {
		case r.err == nil:
			runs = append(runs, r)
		case !degradable(r.err):
			return nil, g, &ShardError{Shard: r.id, Err: r.err}
		default:
			g.MissingShards = append(g.MissingShards, r.id)
			lastMiss = &ShardError{Shard: r.id, Err: r.err}
		}
	}
	if len(g.MissingShards) > 0 {
		g.Degraded = true
		if !allowPartial {
			return nil, g, &UnavailableError{Missing: g.MissingShards, Last: lastMiss}
		}
	}

	// (UB desc, shard id asc): the gather order the determinism argument
	// assumes. Insertion sort is stable by id because runs start in
	// ascending shard id order.
	for i := 1; i < len(runs); i++ {
		for j := i; j > 0 && runs[j].ub > runs[j-1].ub; j-- {
			runs[j], runs[j-1] = runs[j-1], runs[j]
		}
	}

	// Phase 2 — speculative scatter, each shard under its own cancel.
	// Shards with ub == 0 are skipped: the gather loop prunes them at
	// their position without ever needing their evaluation.
	for i := range runs {
		r := &runs[i]
		if r.ub == 0 {
			continue
		}
		r.done = make(chan struct{})
		var sctx context.Context
		sctx, r.cancel = context.WithCancel(ctx)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer close(r.done)
			defer recoverInto(&r.err)
			if r.err = faults.InjectCtxKeyed(sctx, SiteScatter, r.id); r.err != nil {
				return
			}
			r.resp, r.err = qr.Query(sctx, r.id, q)
		}()
	}
	// Join everything before returning, whatever path exits.
	defer func() {
		for i := range runs {
			if runs[i].cancel != nil {
				runs[i].cancel()
			}
		}
		wg.Wait()
	}()

	// Phase 3 — sequential decision loop over the fixed order.
	merged := make([]core.StreetResult, 0, q.K*2)
	var failure error
	for i := range runs {
		r := &runs[i]
		if failure = faults.InjectCtx(ctx, SiteGather); failure != nil {
			break
		}
		lbk, full := 0.0, len(merged) >= q.K
		if full {
			lbk = merged[q.K-1].Interest
		}
		if r.ub == 0 || (full && r.ub < lbk) {
			// No street of this shard can enter the top-k: its bound is
			// strictly below the already-guaranteed kth interest (or it
			// has no query-relevant mass at all). Cancel and move on
			// without waiting.
			if r.cancel != nil {
				r.cancel()
			}
			g.ShardsPruned++
			continue
		}
		select {
		case <-r.done:
		case <-ctx.Done():
		}
		if failure = ctx.Err(); failure != nil {
			break
		}
		if r.err != nil {
			if !degradable(r.err) {
				failure = &ShardError{Shard: r.id, Err: r.err}
				break
			}
			// The shard could have contributed (it survived the prune
			// test) but stayed unreachable.
			g.Degraded = true
			g.MissingShards = append(g.MissingShards, r.id)
			if !allowPartial {
				failure = &UnavailableError{Missing: g.MissingShards, Last: &ShardError{Shard: r.id, Err: r.err}}
				break
			}
			continue
		}
		g.ShardsEvaluated++
		foldStats(&g.Stats, r.resp.Stats)
		merged = append(merged, r.resp.Results...)
		core.SortResults(merged)
		if len(merged) > q.K {
			// Keep the top k plus the tie block at position k: a later
			// shard result tying the kth interest must still be ranked
			// against these by street id, exactly like the single
			// index's strict tie drain.
			cut := q.K
			for cut < len(merged) && merged[cut].Interest == merged[q.K-1].Interest {
				cut++
			}
			merged = merged[:cut]
		}
	}
	sort.Ints(g.MissingShards)
	if failure != nil {
		return nil, g, failure
	}
	if len(merged) > q.K {
		merged = merged[:q.K]
	}
	return merged, g, nil
}
