package server

import (
	"fmt"
	"io"
	"net/http"

	soi "repro"
	"repro/internal/core"
	"repro/internal/httperr"
	"repro/internal/shard"
	"repro/internal/stats"
)

// RemoteConfig wires a RemoteServer.
type RemoteConfig struct {
	// Coordinator is the remote scatter-gather coordinator (required).
	Coordinator *shard.RemoteCoordinator
	// Recorder, when non-nil, backs /metrics and the stats section of
	// /api/stats, and receives the per-answer gather counters
	// (soi_remote_shards_evaluated, soi_remote_shards_pruned) and the
	// degradation counters (soi_remote_degraded,
	// soi_remote_shards_missing).
	Recorder *stats.Recorder
	// Breakers, when non-nil, reports the per-replica breaker states
	// surfaced in /api/stats (remote.Client.BreakerStates).
	Breakers func() [][]string
}

// RemoteServer serves k-SOI queries over shards running in other
// processes — the HTTP face of shard.RemoteCoordinator. The endpoint
// contract mirrors the single-process /api/streets, with one addition:
// availability is explicit. A query that cannot reach every shard
// answers 503 (Retry-After: 1) by default; with ?partial=1 the
// client opts into graceful degradation and receives the merged top-k
// of the shards that answered, tagged "degraded": true with the
// "missing_shards" list. A non-degraded answer carries neither field
// and is bit-identical to the single-process oracle.
type RemoteServer struct {
	*httperr.Base
	coord    *shard.RemoteCoordinator
	rec      *stats.Recorder
	breakers func() [][]string
}

// NewRemoteServer wires the handler set around a remote coordinator. A
// coordinator holds no index, so it is ready until it drains; its
// /metrics adds the soi_remote_shards gauge.
func NewRemoteServer(cfg RemoteConfig) *RemoteServer {
	s := &RemoteServer{
		coord:    cfg.Coordinator,
		rec:      cfg.Recorder,
		breakers: cfg.Breakers,
	}
	s.Base = httperr.NewBase("", cfg.Recorder, func(w io.Writer) {
		fmt.Fprintf(w, "# TYPE soi_remote_shards gauge\nsoi_remote_shards %d\n", s.coord.ShardCount())
	})
	s.HandleFunc("/api/streets", endpoint[streetsRequest, remoteStreetsResponse]{method: http.MethodGet, params: parseStreets, call: s.streets}.serve)
	s.HandleFunc("/api/stats", endpoint[struct{}, remoteStatsResponse]{method: http.MethodGet, params: noParams, call: s.stats}.serve)
	return s
}

// remoteStreetsResponse extends the /api/streets payload with the
// degradation tags. Both are omitted on clean answers, so a
// non-degraded response is byte-identical in shape to the
// single-process one.
type remoteStreetsResponse struct {
	Streets       []soi.Street `json:"streets"`
	Degraded      bool         `json:"degraded,omitempty"`
	MissingShards []int        `json:"missing_shards,omitempty"`
}

func (s *RemoteServer) streets(r *http.Request, req streetsRequest) (remoteStreetsResponse, error) {
	res, gather, err := s.coord.TopK(r.Context(), core.Query(req.Query), req.partial)
	if err != nil {
		return remoteStreetsResponse{}, err
	}
	if s.rec != nil {
		s.rec.Remote.ShardsEvaluated.Add(int64(gather.ShardsEvaluated))
		s.rec.Remote.ShardsPruned.Add(int64(gather.ShardsPruned))
		if gather.Degraded {
			s.rec.Remote.Degraded.Add(1)
			s.rec.Remote.ShardsMissing.Add(int64(len(gather.MissingShards)))
		}
	}
	resp := remoteStreetsResponse{
		Streets:       make([]soi.Street, len(res)),
		Degraded:      gather.Degraded,
		MissingShards: gather.MissingShards,
	}
	for i, sr := range res {
		resp.Streets[i] = soi.Street{Name: sr.Name, Interest: sr.Interest, Mass: sr.Mass}
	}
	return resp, nil
}

// remoteStatsResponse is the coordinator's /api/stats payload: the
// shard fan-out shape, the live counters, and every replica breaker's
// state.
type remoteStatsResponse struct {
	Shards   int             `json:"shards"`
	Halo     float64         `json:"halo"`
	Breakers [][]string      `json:"breakers,omitempty"`
	Stats    *stats.Snapshot `json:"stats,omitempty"`
	Runtime  httperr.Runtime `json:"runtime"`
}

func (s *RemoteServer) stats(*http.Request, struct{}) (remoteStatsResponse, error) {
	resp := remoteStatsResponse{
		Shards:  s.coord.ShardCount(),
		Halo:    s.coord.Halo(),
		Runtime: httperr.ReadRuntime(),
	}
	if s.breakers != nil {
		resp.Breakers = s.breakers()
	}
	if s.rec != nil {
		snap := s.rec.Snapshot()
		resp.Stats = &snap
	}
	return resp, nil
}
