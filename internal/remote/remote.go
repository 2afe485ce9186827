// Package remote moves the scatter half of the k-SOI scatter-gather
// coordinator across process boundaries: a per-shard HTTP query server
// (Server, wrapped by cmd/soishard) and a fault-tolerant client
// (Client) that the shard.RemoteCoordinator fans out through.
//
// The wire protocol is deliberately small — one POST endpoint answering
// a shard-local k-SOI evaluation together with the shard's static unseen
// upper bound, one metadata endpoint, the liveness/readiness pair, and
// the observability routes every server of this repo mounts:
//
//	GET  /healthz       liveness: the process is up
//	GET  /readyz        readiness: index loaded and not draining
//	GET  /shard/meta    shard id, tile grid, halo, cell size, sizes
//	POST /shard/query   {"keywords":[...],"k":..,"eps":..}
//	GET  /metrics       Prometheus text exposition of the shard's executor + runtime gauges
//	GET  /debug/pprof/  net/http/pprof profiles
//
// A scatter-gather round is one /shard/query per shard: the coordinator
// orders and prunes the shards by the "ub" each answer carries. A shard
// whose bound is 0 (no query-relevant mass) answers {"shard":i,"ub":0}
// without entering its executor. Request fields this version does not
// know are ignored, not refused: a coordinator from before the bound rode
// on the answer still asks for it alone, in a round of its own (DESIGN
// §14 names the field), and gets the full answer with the same "ub".
//
// Responses carry street and segment ids already mapped to the global
// id space, so the coordinator needs no per-shard id tables. All floats
// travel as JSON numbers: encoding/json emits the shortest decimal that
// round-trips to the same float64, so interests and masses survive the
// wire bit-exactly and a non-degraded remote answer can be compared
// bit-for-bit against the single-process oracle.
//
// The client survives an unreliable network: per-attempt timeouts,
// bounded retries with exponential backoff and jitter (k-SOI queries
// are idempotent reads), hedged second attempts once a call outlives
// the shard's recent latency, per-replica circuit breakers
// (closed/open/half-open with a /readyz probe) and replica failover.
// Chaos suites drive all of it deterministically through the
// internal/faults sites below.
package remote

import (
	"repro/internal/core"
	"repro/internal/network"
)

// Fault-injection sites (internal/faults) modelling the network legs of
// one attempt. Delay = latency, Block = wedge, Err = drop; the serving
// site's Err maps to an injected 5xx.
const (
	// SiteDial fires client-side before the HTTP request is issued —
	// the connection-establishment leg.
	SiteDial = "remote.dial"
	// SiteSend fires client-side between dial and the round trip — the
	// request-transmission leg.
	SiteSend = "remote.send"
	// SiteRecv fires client-side after the response header arrives,
	// before the body is decoded — the response-stream leg.
	SiteRecv = "remote.recv"
	// SiteServe fires server-side before a shard evaluation; an Err
	// fault here surfaces as a 500 to the client (the injected-5xx
	// chaos mode).
	SiteServe = "remote.serve"
)

// QueryRequest is the /shard/query request body: the paper's q = ⟨Ψ, k,
// ε⟩.
type QueryRequest struct {
	Keywords []string `json:"keywords"`
	K        int      `json:"k"`
	Epsilon  float64  `json:"eps"`
}

// Query converts the wire form back to a core query.
func (r QueryRequest) Query() core.Query {
	return core.Query{Keywords: r.Keywords, K: r.K, Epsilon: r.Epsilon}
}

// QueryResponse is the /shard/query response body. UB is the shard's
// static unseen upper bound for the query (core.Index.UnseenBound), what
// the gather orders and prunes by. Results carry global street/segment
// ids; Stats are the shard evaluation's Algorithm 1 work counters. A
// shard with UB 0 did not evaluate: no results, zero Stats.
type QueryResponse struct {
	Shard   int                 `json:"shard"`
	UB      float64             `json:"ub"`
	Results []core.StreetResult `json:"results,omitempty"`
	Stats   core.Stats          `json:"stats,omitempty"`
}

// Meta is the /shard/meta response body: enough for a coordinator to
// sanity-check that an address really serves the shard it was
// configured for, over the partition it expects, and for an operator to
// see what the shard holds (POIs counts the replicated halo cells too).
type Meta struct {
	Shard    int     `json:"shard"`
	Shards   int     `json:"shards"`
	TileX    int     `json:"tile_x"`
	TileY    int     `json:"tile_y"`
	Halo     float64 `json:"halo"`
	CellSize float64 `json:"cell_size"`
	Streets  int     `json:"streets"`
	Segments int     `json:"segments"`
	POIs     int     `json:"pois"`
}

// ShardData is everything a Server needs to answer queries for one
// shard. It mirrors shard.Shard plus the partition-level constants, but
// stays a plain struct so this package does not import internal/shard
// (which imports this package for the remote coordinator).
type ShardData struct {
	ShardID  int
	Shards   int
	TileX    int
	TileY    int
	Halo     float64
	CellSize float64
	Index    *core.Index
	// Streets[local] / Segments[local] map the shard's local ids to the
	// global id space (strictly ascending, preserving tie-breaks).
	Streets  []network.StreetID
	Segments []network.SegmentID
}

// GlobalIDs rewrites the shard-local street and segment ids of res, in
// place, to the global id space — the form results leave a shard in.
// streets[local] and segments[local] are the shard's id tables.
func GlobalIDs(res []core.StreetResult, streets []network.StreetID, segments []network.SegmentID) {
	for i := range res {
		res[i].Street = streets[res[i].Street]
		res[i].BestSegment = segments[res[i].BestSegment]
	}
}
