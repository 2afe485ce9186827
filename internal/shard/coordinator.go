package shard

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/faults"
)

// Fault-injection sites for the chaos suites (internal/faults).
const (
	// SiteScatter fires once per shard evaluation goroutine, before the
	// shard's k-SOI run, followed by its per-shard variant
	// faults.KeyedSite(SiteScatter, shard id).
	SiteScatter = "shard.scatter"
	// SiteGather fires once per shard in the gather loop, before the
	// prune-or-wait decision.
	SiteGather = "shard.gather"
)

// ErrEpsilonExceedsHalo rejects queries whose radius is larger than the
// world's POI replication halo: border streets could miss mass from
// points replicated into neighbouring shards only, so exactness would
// be silently lost. Rebuild the partition with a larger halo instead.
var ErrEpsilonExceedsHalo = errors.New("shard: query epsilon exceeds partition halo")

// ShardError wraps a failure of one shard's evaluation with the shard id.
type ShardError struct {
	Shard int
	Err   error
}

func (e *ShardError) Error() string { return fmt.Sprintf("shard %d: %v", e.Shard, e.Err) }

func (e *ShardError) Unwrap() error { return e.Err }

// GatherStats reports how the scatter-gather run spent its shards. The
// counters are deterministic: they depend only on the query and the
// partition, never on goroutine scheduling (see Coordinator.TopK).
type GatherStats struct {
	// ShardsTotal is the number of shards in the world.
	ShardsTotal int
	// ShardsEvaluated counts shards whose k-SOI results were merged.
	ShardsEvaluated int
	// ShardsPruned counts shards terminated early because the merged
	// global LBk strictly dominated their upper bound (or their bound
	// was zero), without waiting for — or using — their evaluation.
	ShardsPruned int
	// Stats folds the Algorithm 1 work counters of every merged shard.
	Stats core.Stats
}

// Coordinator answers k-SOI queries over a partitioned world by
// scatter-gather, bit-identically to a single index over the whole
// dataset.
type Coordinator struct {
	world *World
	// order holds shard indices sorted by (initial UB desc, shard id
	// asc) per query; recomputed each call since UB depends on Ψ and ε.
}

// NewCoordinator wraps a partitioned world.
func NewCoordinator(w *World) *Coordinator { return &Coordinator{world: w} }

// World returns the underlying partitioned world.
func (c *Coordinator) World() *World { return c.world }

// shardRun is one shard's speculative evaluation.
type shardRun struct {
	shard   *Shard
	ub      float64
	cancel  context.CancelFunc
	done    chan struct{}
	results []core.StreetResult
	stats   core.Stats
	err     error
}

// TopK runs Algorithm 1 on every shard that can still matter and merges
// the per-shard rankings into the global top-k.
//
// Determinism: shards are ordered by (initial upper bound desc, shard
// id asc) and the gather loop walks that order sequentially, deciding
// prune-or-merge for shard i before looking at shard i+1. Evaluations
// run speculatively in parallel, but because the decision sequence
// ⟨LB_k after 0 merges, after 1 merge, …⟩ is a pure function of the
// query and the partition, the pruned set — and with it GatherStats —
// is identical regardless of which goroutine finishes first. Pruning
// uses the strict test UB_i < LB_k of the paper (plus UB_i = 0 for
// shards with no query-relevant mass): a shard tying the bound is still
// evaluated, exactly as Algorithm 1 keeps draining ties at UB = LBk, so
// equal-interest streets beyond position k are ranked by the same
// (interest desc, id asc) order the single index uses.
//
// Every launched goroutine is joined before TopK returns, on success,
// error and cancellation paths alike — no leaks, no writes after return.
func (c *Coordinator) TopK(ctx context.Context, q core.Query) ([]core.StreetResult, GatherStats, error) {
	gs := GatherStats{ShardsTotal: len(c.world.Shards)}
	if err := q.Validate(); err != nil {
		return nil, gs, err
	}
	if q.Epsilon > c.world.Halo {
		return nil, gs, fmt.Errorf("%w: ε=%v > halo=%v", ErrEpsilonExceedsHalo, q.Epsilon, c.world.Halo)
	}

	// Static per-shard upper bounds from the untouched source lists.
	runs := make([]*shardRun, 0, len(c.world.Shards))
	for _, s := range c.world.Shards {
		ub, err := s.Index.UnseenBound(q)
		if err != nil {
			return nil, gs, &ShardError{Shard: s.ID, Err: err}
		}
		runs = append(runs, &shardRun{shard: s, ub: ub})
	}
	// (UB desc, shard id asc): the gather order the decision proof
	// assumes. Insertion sort keeps it allocation-free and stable-by-id
	// because runs start in ascending shard id order.
	for i := 1; i < len(runs); i++ {
		for j := i; j > 0 && runs[j].ub > runs[j-1].ub; j-- {
			runs[j], runs[j-1] = runs[j-1], runs[j]
		}
	}

	// Scatter: launch every shard speculatively with its own cancel.
	var wg sync.WaitGroup
	for _, r := range runs {
		r.done = make(chan struct{})
		sctx, cancel := context.WithCancel(ctx)
		r.cancel = cancel
		wg.Add(1)
		go func(r *shardRun, sctx context.Context) {
			defer wg.Done()
			defer close(r.done)
			defer func() {
				if v := recover(); v != nil {
					r.err = &engine.PanicError{Value: v}
				}
			}()
			if err := faults.InjectCtxKeyed(sctx, SiteScatter, r.shard.ID); err != nil {
				r.err = err
				return
			}
			r.results, r.stats, r.err = r.shard.Index.SOIContext(sctx, q, core.CostAware, nil)
		}(r, sctx)
	}
	// Join everything before returning, whatever path exits.
	defer func() {
		for _, r := range runs {
			r.cancel()
		}
		wg.Wait()
	}()

	// Gather: sequential decision loop over the fixed order.
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
			// No street of this shard can enter the top-k: its bound is
			// strictly below the already-guaranteed kth interest (or it
			// has no query-relevant mass at all). Cancel and move on
			// without waiting.
			r.cancel()
			gs.ShardsPruned++
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
			failure = &ShardError{Shard: r.shard.ID, Err: r.err}
			break
		}
		gs.ShardsEvaluated++
		foldStats(&gs.Stats, r.stats)
		for _, res := range r.results {
			res.Street = r.shard.Streets[res.Street]
			res.BestSegment = r.shard.Segments[res.BestSegment]
			merged = append(merged, res)
		}
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
	if failure != nil {
		return nil, gs, failure
	}
	core.SortResults(merged)
	if len(merged) > q.K {
		merged = merged[:q.K]
	}
	return merged, gs, nil
}

// foldStats accumulates one shard's Algorithm 1 counters.
func foldStats(dst *core.Stats, s core.Stats) {
	dst.BuildListsTime += s.BuildListsTime
	dst.FilterTime += s.FilterTime
	dst.RefineTime += s.RefineTime
	dst.CellAccesses += s.CellAccesses
	dst.SegmentAccesses += s.SegmentAccesses
	dst.SL2Accesses += s.SL2Accesses
	dst.SL3Accesses += s.SL3Accesses
	dst.FilterIterations += s.FilterIterations
	dst.CellVisits += s.CellVisits
	dst.SegmentCacheHits += s.SegmentCacheHits
	dst.SegmentsSeen += s.SegmentsSeen
	dst.SegmentsFinal += s.SegmentsFinal
	dst.RefineDrained += s.RefineDrained
	dst.TotalSegments += s.TotalSegments
	dst.TotalCells += s.TotalCells
}
