package shard

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/remote"
)

// ErrShardsUnavailable marks a scatter-gather run that could not reach
// every shard it needed and was not allowed to degrade. Match it with
// errors.Is; the concrete value is always an *UnavailableError carrying
// the missing shard ids.
var ErrShardsUnavailable = errors.New("shard: required shards unavailable")

// UnavailableError reports which shards a non-degradable remote
// scatter-gather run could not reach, with a representative underlying
// failure. It maps itself to 503 through internal/httperr: shard
// unavailability is an availability fault the client may retry, never a
// bad request.
type UnavailableError struct {
	// Missing lists the unreachable shard ids, ascending.
	Missing []int
	// Last is a representative underlying failure.
	Last error
}

func (e *UnavailableError) Error() string {
	return fmt.Sprintf("shard: shards %v unavailable (last: %v)", e.Missing, e.Last)
}

func (e *UnavailableError) Unwrap() error { return e.Last }

// Is matches ErrShardsUnavailable.
func (e *UnavailableError) Is(target error) bool { return target == ErrShardsUnavailable }

// HTTPStatus maps shard unavailability to 503 (httperr.Statuser).
func (e *UnavailableError) HTTPStatus() int { return http.StatusServiceUnavailable }

// RemoteGather is GatherStats plus the degradation record of a remote
// scatter-gather run. A non-degraded remote answer is bit-identical to
// the single-process oracle; a degraded one is the exact top-k of the
// shards that answered, with MissingShards naming the gaps.
type RemoteGather struct {
	GatherStats
	// Degraded reports that at least one shard that could have
	// contributed to the top-k was unreachable, so the answer may be
	// missing streets. Shards that failed but were provably prunable at
	// their gather position do not degrade the answer.
	Degraded bool
	// MissingShards lists the unreachable shards behind Degraded,
	// ascending.
	MissingShards []int
}

// RemoteQuerier is the client surface the remote coordinator fans out
// through — implemented by remote.Client, and by in-process fakes in
// tests.
type RemoteQuerier interface {
	// Shards returns the number of shards addressed.
	Shards() int
	// Bound fetches shard's static unseen upper bound for q.
	Bound(ctx context.Context, shard int, q core.Query) (float64, error)
	// Query evaluates q on shard, returning global-id results.
	Query(ctx context.Context, shard int, q core.Query) (*remote.QueryResponse, error)
}

// RemoteCoordinator answers k-SOI queries by scatter-gather over shard
// servers in other processes. Its decision structure is a mirror of the
// in-process Coordinator — same (UB desc, shard id asc) gather order,
// same strict prune test, same tie-block merge — so any run in which
// every needed shard answers is bit-identical to the single-process
// oracle. What it adds is a failure model: shard calls go through a
// fault-tolerant client (retries, hedging, breakers, failover), and
// when a shard stays unreachable the run either fails with
// ErrShardsUnavailable (allowPartial=false) or degrades — merging what
// answered and tagging the result — instead of hanging or guessing.
type RemoteCoordinator struct {
	client RemoteQuerier
	halo   float64
}

// NewRemoteCoordinator wraps a shard client. halo is the partition's
// POI-replication halo (the largest ε answered exactly); pass 0 to skip
// the coordinator-side ε check and let shards enforce it.
func NewRemoteCoordinator(client RemoteQuerier, halo float64) *RemoteCoordinator {
	return &RemoteCoordinator{client: client, halo: halo}
}

// Halo returns the coordinator's ε ceiling (0 when unchecked).
func (c *RemoteCoordinator) Halo() float64 { return c.halo }

// ShardCount returns the number of shards the coordinator fans out to.
func (c *RemoteCoordinator) ShardCount() int { return c.client.Shards() }

// remoteRun is one shard's speculative remote evaluation.
type remoteRun struct {
	id     int
	ub     float64
	cancel context.CancelFunc
	done   chan struct{}
	resp   *remote.QueryResponse
	err    error
}

// permanentRemote reports an error that marks the request — not the
// shard — as broken: degradation must not hide it.
func permanentRemote(err error) bool {
	var pe *remote.PermanentError
	return errors.As(err, &pe)
}

// TopK runs the remote scatter-gather. With allowPartial=false the
// answer is all-or-nothing: every shard that cannot be pruned must
// answer, else ErrShardsUnavailable. With allowPartial=true unreachable
// shards degrade the answer instead: the merged top-k of the shards
// that answered, with gather.Degraded set and gather.MissingShards
// naming the gaps.
//
// Degradation is as precise as the prune proof allows: a shard whose
// bound never arrived always degrades (it might have mattered), but a
// shard that failed after its bound arrived only degrades if, at its
// position in the gather order, the merged LB_k did not already
// dominate its bound — a shard the oracle would have pruned cannot be
// missed. Failed shards contribute nothing to LB_k, so every later
// prune decision is conservative: a degraded answer is a subset of the
// oracle's candidates, never a wrong ranking of them.
func (c *RemoteCoordinator) TopK(ctx context.Context, q core.Query, allowPartial bool) ([]core.StreetResult, RemoteGather, error) {
	n := c.client.Shards()
	g := RemoteGather{GatherStats: GatherStats{ShardsTotal: n}}
	if err := q.Validate(); err != nil {
		return nil, g, err
	}
	if c.halo > 0 && q.Epsilon > c.halo {
		return nil, g, fmt.Errorf("%w: ε=%v > halo=%v", ErrEpsilonExceedsHalo, q.Epsilon, c.halo)
	}

	// Phase 1 — bounds, in parallel. A shard whose bound cannot be
	// fetched is missing from the gather order entirely: nothing proves
	// it prunable, so it always degrades (or fails the call).
	type boundOut struct {
		ub  float64
		err error
	}
	bounds := make([]boundOut, n)
	var bwg sync.WaitGroup
	for i := 0; i < n; i++ {
		bwg.Add(1)
		go func(i int) {
			defer bwg.Done()
			defer func() {
				if v := recover(); v != nil {
					bounds[i].err = &engine.PanicError{Value: v}
				}
			}()
			bounds[i].ub, bounds[i].err = c.client.Bound(ctx, i, q)
		}(i)
	}
	bwg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, g, err
	}

	var lastMiss error
	runs := make([]*remoteRun, 0, n)
	for i, b := range bounds {
		if b.err == nil {
			runs = append(runs, &remoteRun{id: i, ub: b.ub})
			continue
		}
		if permanentRemote(b.err) {
			// The shard answered decisively that the request is broken
			// (bad query, ε over its halo): a semantic error, never a
			// degradation candidate.
			return nil, g, &ShardError{Shard: i, Err: b.err}
		}
		g.MissingShards = append(g.MissingShards, i)
		lastMiss = &ShardError{Shard: i, Err: b.err}
	}
	if len(g.MissingShards) > 0 {
		g.Degraded = true
		if !allowPartial {
			return nil, g, &UnavailableError{Missing: g.MissingShards, Last: lastMiss}
		}
	}

	// (UB desc, shard id asc): the gather order the determinism proof
	// assumes, identical to the in-process coordinator.
	for i := 1; i < len(runs); i++ {
		for j := i; j > 0 && runs[j].ub > runs[j-1].ub; j-- {
			runs[j], runs[j-1] = runs[j-1], runs[j]
		}
	}

	// Phase 2 — speculative scatter. Shards with ub == 0 are skipped:
	// the gather loop prunes them at their position without ever needing
	// their evaluation, so the network call would be pure waste.
	var wg sync.WaitGroup
	for _, r := range runs {
		if r.ub == 0 {
			continue
		}
		r.done = make(chan struct{})
		sctx, cancel := context.WithCancel(ctx)
		r.cancel = cancel
		wg.Add(1)
		go func(r *remoteRun, sctx context.Context) {
			defer wg.Done()
			defer close(r.done)
			defer func() {
				if v := recover(); v != nil {
					r.err = &engine.PanicError{Value: v}
				}
			}()
			if err := faults.InjectCtxKeyed(sctx, SiteScatter, r.id); err != nil {
				r.err = err
				return
			}
			r.resp, r.err = c.client.Query(sctx, r.id, q)
		}(r, sctx)
	}
	defer func() {
		for _, r := range runs {
			if r.cancel != nil {
				r.cancel()
			}
		}
		wg.Wait()
	}()

	// Phase 3 — sequential gather over the fixed order, the same
	// decision loop as the in-process coordinator plus the degrade
	// branch.
	merged := make([]core.StreetResult, 0, q.K*2)
	kth := func() (float64, bool) {
		if len(merged) < q.K {
			return 0, false
		}
		return merged[q.K-1].Interest, true
	}
	var failure error
	for _, r := range runs {
		if err := faults.InjectCtx(ctx, SiteGather); err != nil {
			failure = err
			break
		}
		lbk, full := kth()
		if r.ub == 0 || (full && r.ub < lbk) {
			if r.cancel != nil {
				r.cancel()
			}
			g.ShardsPruned++
			continue
		}
		select {
		case <-r.done:
		case <-ctx.Done():
			failure = ctx.Err()
		}
		if failure != nil {
			break
		}
		if r.err != nil {
			if ctx.Err() != nil {
				failure = ctx.Err()
				break
			}
			if permanentRemote(r.err) {
				failure = &ShardError{Shard: r.id, Err: r.err}
				break
			}
			// The shard could have contributed (it survived the prune
			// test) but stayed unreachable through the client's whole
			// resilience stack. It adds nothing to LB_k, so later prunes
			// stay conservative.
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
	core.SortResults(merged)
	if len(merged) > q.K {
		merged = merged[:q.K]
	}
	return merged, g, nil
}
