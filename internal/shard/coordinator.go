package shard

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/remote"
)

// Fault-injection sites for the chaos suites (internal/faults).
const (
	// SiteScatter fires once per shard in that shard's goroutine, before
	// its Query call, followed by its per-shard variant
	// faults.KeyedSite(SiteScatter, shard id).
	SiteScatter = "shard.scatter"
	// SiteGather fires once per shard that answered, in the gather loop,
	// before its prune-or-merge decision.
	SiteGather = "shard.gather"
)

// ErrEpsilonExceedsHalo rejects queries whose radius is larger than the
// world's POI replication halo: border streets could miss mass from
// points replicated into neighbouring shards only, so exactness would
// be silently lost. Rebuild the partition with a larger halo instead. It
// matches core.ErrBadRequest.
var ErrEpsilonExceedsHalo = core.BadRequest(errors.New("shard: query epsilon exceeds partition halo"))

// ShardError wraps a failure of one shard's evaluation with the shard id.
type ShardError struct {
	Shard int
	Err   error
}

func (e *ShardError) Error() string { return fmt.Sprintf("shard %d: %v", e.Shard, e.Err) }

func (e *ShardError) Unwrap() error { return e.Err }

// GatherStats reports how the scatter-gather run spent its shards. The
// counters are deterministic: they depend only on the query and the
// partition, never on goroutine scheduling (see gather).
type GatherStats struct {
	// ShardsTotal is the number of shards in the world.
	ShardsTotal int
	// ShardsEvaluated counts shards whose k-SOI results were merged.
	ShardsEvaluated int
	// ShardsPruned counts shards that answered but were not merged: the
	// merged global LBk strictly dominated their upper bound, or their
	// bound was zero (those answer without evaluating).
	ShardsPruned int
	// Stats folds the Algorithm 1 work counters of every merged shard.
	Stats core.Stats
}

// Coordinator answers k-SOI queries over a partitioned world by
// scatter-gather, bit-identically to a single index over the whole
// dataset.
type Coordinator struct {
	world *World
}

// NewCoordinator wraps a partitioned world.
func NewCoordinator(w *World) *Coordinator { return &Coordinator{world: w} }

// TopK runs the scatter-gather (see gather) over the world's own shards
// and merges the per-shard rankings into the global top-k. Nothing an
// in-process shard reports is degradable — a shard that fails here is a
// broken program, not an unreachable peer — so the run is all-or-nothing
// and a shard failure, a recovered panic included, is a *ShardError.
func (c *Coordinator) TopK(ctx context.Context, q core.Query) ([]core.StreetResult, GatherStats, error) {
	if err := checkQuery(q, c.world.Halo); err != nil {
		return nil, GatherStats{ShardsTotal: len(c.world.Shards)}, err
	}
	res, g, err := gather(ctx, c.world.Querier(), q, false, func(error) bool { return false })
	return res, g.GatherStats, err
}

// checkQuery refuses an invalid query, and one whose radius the
// partition cannot answer exactly.
func checkQuery(q core.Query, halo float64) error {
	if err := q.Validate(); err != nil {
		return err
	}
	if q.Epsilon > halo {
		return fmt.Errorf("%w: ε=%v > halo=%v", ErrEpsilonExceedsHalo, q.Epsilon, halo)
	}
	return nil
}

// worldQuerier is a partitioned world behind RemoteQuerier: each shard
// evaluated in this process, results mapped to global ids.
type worldQuerier struct{ w *World }

// Querier exposes the world's shards through the interface the gather
// fans out over — what NewCoordinator runs on, and an in-process stand-in
// for a remote.Client under NewRemoteCoordinator.
func (w *World) Querier() RemoteQuerier { return worldQuerier{w} }

func (wq worldQuerier) Shards() int { return len(wq.w.Shards) }

func (wq worldQuerier) Query(ctx context.Context, shard int, q core.Query) (*remote.QueryResponse, error) {
	s := wq.w.Shards[shard]
	ub, err := s.Index.UnseenBound(q)
	if err != nil {
		return nil, err
	}
	if ub == 0 {
		// No query-relevant mass: nothing to evaluate, as in
		// remote.Server.handleQuery.
		return &remote.QueryResponse{Shard: shard}, nil
	}
	// Drain, as in remote.NewServer: bounded by one tile's LBk.
	res, st, err := s.Index.SOIContext(ctx, q, core.Drain, nil)
	if err != nil {
		return nil, err
	}
	// res is this evaluation's own slice (no cache sits in between), so
	// the ids are rewritten in place.
	remote.GlobalIDs(res, s.Streets, s.Segments)
	return &remote.QueryResponse{Shard: shard, UB: ub, Results: res, Stats: st}, nil
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
	dst.SegmentsSeen += s.SegmentsSeen
	dst.SegmentsFinal += s.SegmentsFinal
	dst.RefineDrained += s.RefineDrained
	dst.TotalSegments += s.TotalSegments
	dst.TotalCells += s.TotalCells
}
