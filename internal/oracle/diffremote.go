package oracle

import (
	"context"
	"fmt"
	"net/http/httptest"
	"time"

	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/poi"
	"repro/internal/remote"
	"repro/internal/shard"
)

// diffRemote cross-checks the cross-process scatter-gather path against
// the oracle reference at every swept tile count: each shard of the
// partition is served by a real HTTP server (loopback, in-process), the
// fault-tolerant client talks to it over the wire, and the remote
// coordinator's answer must be bit-identical to the oracle — Equal on
// ranked ids, names, best segments, Float64bits interests and masses.
// With every shard reachable no run may degrade, and the gather counters
// must partition the shard set exactly like the in-process coordinator's.
// This is the strongest form of the serialization metamorphic property:
// JSON transport, retry plumbing and replica selection may not move a
// single bit.
func diffRemote(net *network.Network, pois *poi.Corpus, queries []core.Query,
	want [][]core.StreetResult, cell float64, opt Options,
	report func(impl string, q core.Query, detail string)) error {

	halo := 0.0
	for _, q := range queries {
		if q.Epsilon > halo {
			halo = q.Epsilon
		}
	}
	if halo == 0 || net.NumStreets() == 0 {
		return nil
	}
	for _, tiles := range opt.shardCounts() {
		if err := diffRemoteTiles(net, pois, queries, want, cell, halo, tiles, report); err != nil {
			return err
		}
	}
	return nil
}

func diffRemoteTiles(net *network.Network, pois *poi.Corpus, queries []core.Query,
	want [][]core.StreetResult, cell, halo float64, tiles int,
	report func(impl string, q core.Query, detail string)) error {

	w, err := shard.Partition(net, pois, shard.Config{Tiles: tiles, Halo: halo, CellSize: cell})
	if err != nil {
		return fmt.Errorf("oracle: partitioning %d tiles for remote (cell %g): %w", tiles, cell, err)
	}
	servers := make([]*httptest.Server, len(w.Shards))
	addrs := make([][]string, len(w.Shards))
	for i, s := range w.Shards {
		hs := httptest.NewServer(remote.NewServer(remote.ShardData{
			ShardID:  s.ID,
			Shards:   len(w.Shards),
			TileX:    s.TileX,
			TileY:    s.TileY,
			Halo:     w.Halo,
			CellSize: w.CellSize,
			Index:    s.Index,
			Streets:  s.Streets,
			Segments: s.Segments,
		}, remote.ServerConfig{}))
		defer hs.Close()
		servers[i] = hs
		addrs[i] = []string{hs.URL}
	}
	// The sweep runs over healthy loopback servers, one replica a shard,
	// so no hedge can start; a single retry absorbs transient listener
	// hiccups without masking a systematic failure.
	client, err := remote.NewClient(remote.Config{
		Addrs:          addrs,
		AttemptTimeout: 30 * time.Second,
		MaxAttempts:    2,
	})
	if err != nil {
		return fmt.Errorf("oracle: remote client for %d tiles (cell %g): %w", tiles, cell, err)
	}
	defer client.Close()

	coord := shard.NewRemoteCoordinator(client, w.Halo)
	impl := fmt.Sprintf("remote/%d", tiles)
	for i, q := range queries {
		res, gs, err := coord.TopK(context.Background(), q, false)
		if err != nil {
			report(impl, q, "error: "+err.Error())
			continue
		}
		if gs.Degraded || len(gs.MissingShards) != 0 {
			report(impl, q, fmt.Sprintf("degraded over healthy shards: missing %v", gs.MissingShards))
			continue
		}
		if d := Equal(res, want[i]); d != "" {
			report(impl, q, d)
			continue
		}
		if gs.ShardsEvaluated+gs.ShardsPruned != gs.ShardsTotal {
			report(impl, q, fmt.Sprintf("gather counters do not partition the shards: total=%d evaluated=%d pruned=%d",
				gs.ShardsTotal, gs.ShardsEvaluated, gs.ShardsPruned))
		}
	}
	return nil
}
