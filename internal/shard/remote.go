package shard

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"

	"repro/internal/core"
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
	// Degraded reports that at least one shard did not answer, so the
	// answer may be missing streets. Nothing proves an unanswered shard
	// prunable — its bound rides on its answer — so every lost shard
	// degrades the run.
	Degraded bool
	// MissingShards lists the unreachable shards behind Degraded,
	// ascending.
	MissingShards []int
}

// RemoteQuerier is the shard surface the gather fans out through —
// implemented by remote.Client, and by World.Querier for shards in this
// process.
type RemoteQuerier interface {
	// Shards returns the number of shards addressed.
	Shards() int
	// Query evaluates q on shard, returning global-id results and the
	// shard's static unseen upper bound for q (QueryResponse.UB). A shard
	// whose bound is 0 answers with no results and does no work.
	Query(ctx context.Context, shard int, q core.Query) (*remote.QueryResponse, error)
}

// RemoteCoordinator answers k-SOI queries by scatter-gather over shard
// servers in other processes. It runs the same gather as the in-process
// Coordinator, so any run in which every needed shard answers is
// bit-identical to the single-process oracle. What it adds is a failure
// model: shard calls go through a fault-tolerant client (retries,
// hedging, breakers, failover), and when a shard stays unreachable the
// run either fails with ErrShardsUnavailable (allowPartial=false) or
// degrades — merging what answered and tagging the result — instead of
// hanging or guessing.
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

// TopK runs the remote scatter-gather (see gather). With
// allowPartial=false the answer is all-or-nothing: every shard must
// answer, else ErrShardsUnavailable. With
// allowPartial=true unreachable shards degrade the answer instead: the
// merged top-k of the shards that answered, with gather.Degraded set and
// gather.MissingShards naming the gaps. Every shard error is degradable
// but a *remote.PermanentError: there the shard answered decisively that
// the request is broken (bad query, ε over its halo), which degradation
// must not hide.
func (c *RemoteCoordinator) TopK(ctx context.Context, q core.Query, allowPartial bool) ([]core.StreetResult, RemoteGather, error) {
	halo := c.halo
	if halo <= 0 {
		halo = math.Inf(1) // unchecked here: the shards enforce their own
	}
	if err := checkQuery(q, halo); err != nil {
		return nil, RemoteGather{GatherStats: GatherStats{ShardsTotal: c.client.Shards()}}, err
	}
	return gather(ctx, c.client, q, allowPartial, func(err error) bool {
		var pe *remote.PermanentError
		return !errors.As(err, &pe)
	})
}
