package shard

import (
	"context"
	"sync"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/remote"
)

// shardRun is one shard's call and, once it answered, its place in the
// gather order (resp.UB).
type shardRun struct {
	id   int
	resp *remote.QueryResponse
	err  error
}

// recoverInto turns a panic of the deferring goroutine into a per-shard
// *engine.PanicError.
func recoverInto(err *error) {
	if v := recover(); v != nil {
		*err = &engine.PanicError{Value: v}
	}
}

// gather is the scatter-gather run both coordinators are adapters of, in
// one round: call Query on every shard at once, wait for all of them,
// order the shards that answered by (static bound desc, shard id asc) —
// the bound rides on the answer, QueryResponse.UB — and walk that order
// sequentially deciding prune-or-merge for shard i before looking at
// shard i+1.
//
// Determinism: answers arrive in whatever order the scheduler and the
// network allow, but the decision sequence ⟨LB_k after 0 merges, after 1
// merge, …⟩ is a pure function of the query, the partition and the set of
// shards that answered, so the pruned set — and with it GatherStats —
// never depends on which goroutine finishes first. Pruning uses the
// strict test UB_i < LB_k of the paper (plus UB_i = 0 for shards with no
// query-relevant mass, which answer without evaluating): a shard tying
// the bound is still merged, exactly as Algorithm 1 keeps draining ties
// at UB = LBk, so equal-interest streets beyond position k are ranked by
// the same (interest desc, id asc) order the single index uses. A pruned
// shard's evaluation has been paid for; the bound closes so rarely (DESIGN
// §12) that asking for it first cost a round trip per shard per query and
// saved next to none.
//
// Failures: degradable reports whether a shard's error is the shard's
// fault (it stayed unreachable) rather than the request's or the
// program's. A non-degradable error fails the run as a *ShardError (the
// lowest shard id's, when several failed). A degradable one marks the
// shard missing, whatever its bound would have been — nothing proves an
// unanswered shard prunable: with allowPartial the run goes on without it
// and the answer is tagged, otherwise it ends in an *UnavailableError.
// Missing shards add nothing to LB_k, so every prune decision stays
// conservative: a degraded answer is a subset of the oracle's candidates,
// never a wrong ranking of them.
//
// Every goroutine is joined before gather returns, on success, error and
// cancellation paths alike — no leaks, no writes after return. A wedged
// shard is therefore waited for as long as its Query takes to give up:
// the client's attempt/retry budget, or the caller's deadline.
func gather(ctx context.Context, qr RemoteQuerier, q core.Query, allowPartial bool, degradable func(error) bool) ([]core.StreetResult, RemoteGather, error) {
	n := qr.Shards()
	g := RemoteGather{GatherStats: GatherStats{ShardsTotal: n}}

	all := make([]shardRun, n)
	var wg sync.WaitGroup
	for i := range all {
		r := &all[i]
		r.id = i
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer recoverInto(&r.err)
			if r.err = faults.InjectCtxKeyed(ctx, SiteScatter, r.id); r.err != nil {
				return
			}
			r.resp, r.err = qr.Query(ctx, r.id, q)
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, g, err
	}
	// runs keeps, in place, the shards that answered. all is in ascending
	// shard id order, so MissingShards is too.
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
		for j := i; j > 0 && runs[j].resp.UB > runs[j-1].resp.UB; j-- {
			runs[j], runs[j-1] = runs[j-1], runs[j]
		}
	}

	merged := make([]core.StreetResult, 0, q.K*2)
	for _, r := range runs {
		if err := faults.InjectCtx(ctx, SiteGather); err != nil {
			return nil, g, err
		}
		lbk, full := 0.0, len(merged) >= q.K
		if full {
			lbk = merged[q.K-1].Interest
		}
		if ub := r.resp.UB; ub == 0 || (full && ub < lbk) {
			// No street of this shard can enter the top-k: its bound is
			// strictly below the already-guaranteed kth interest (or it
			// has no query-relevant mass at all).
			g.ShardsPruned++
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
	if len(merged) > q.K {
		merged = merged[:q.K]
	}
	return merged, g, nil
}
