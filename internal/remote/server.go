package remote

import (
	"fmt"
	"net/http"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/httperr"
)

// DefaultMaxBodyBytes caps the /shard/query request body when
// ServerConfig leaves MaxBodyBytes zero.
const DefaultMaxBodyBytes = 1 << 20

// ServerConfig tunes one shard server.
type ServerConfig struct {
	// Engine configures the admission/timeout stack every /shard/query
	// evaluation runs through: worker pool, bounded wait queue with load
	// shedding, per-query deadline, result cache, recorder. The zero
	// value serves with defaults (GOMAXPROCS workers, unbounded queue).
	// The shard's index is fixed, so its executor evaluates with
	// core.Drain, like every static executor.
	Engine engine.Config
	// MaxBodyBytes caps the request body; 0 means DefaultMaxBodyBytes,
	// negative disables the cap.
	MaxBodyBytes int64
}

// Server answers per-shard k-SOI queries over HTTP — the process a
// remote scatter-gather coordinator fans out to. Evaluations run
// through an engine.Executor, so the shard inherits the whole
// single-process robustness stack: bounded admission (503 +
// Retry-After), per-query deadlines (504), cooperative cancellation
// (499 accounting) and panic isolation (500). Results are mapped to
// global street/segment ids before they leave the process. /healthz,
// /readyz (503 until the shard index is loaded and while draining —
// half-open breakers probe it before re-admitting traffic), /metrics and
// /debug/pprof/ come from the shared httperr.Base.
type Server struct {
	*httperr.Base
	d       ShardData
	exec    *engine.Executor
	maxBody int64
}

// NewServer wires the handler set for one shard.
func NewServer(d ShardData, cfg ServerConfig) *Server {
	maxBody := cfg.MaxBodyBytes
	if maxBody == 0 {
		maxBody = DefaultMaxBodyBytes
	}
	exec := engine.New(d.Index, cfg.Engine)
	notLoaded := ""
	if d.Index == nil {
		notLoaded = "index not loaded"
	}
	s := &Server{
		Base:    httperr.NewBase(notLoaded, exec.Recorder(), nil),
		d:       d,
		exec:    exec,
		maxBody: maxBody,
	}
	s.HandleFunc("/shard/meta", s.handleMeta)
	s.HandleFunc("/shard/query", s.handleQuery)
	return s
}

func (s *Server) handleMeta(w http.ResponseWriter, r *http.Request) {
	var pois int
	if s.d.Index != nil {
		pois = s.d.Index.POIs().Len()
	}
	httperr.WriteJSON(w, http.StatusOK, Meta{
		Shard:    s.d.ShardID,
		Shards:   s.d.Shards,
		TileX:    s.d.TileX,
		TileY:    s.d.TileY,
		Halo:     s.d.Halo,
		CellSize: s.d.CellSize,
		Streets:  len(s.d.Streets),
		Segments: len(s.d.Segments),
		POIs:     pois,
	})
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	// The injected-5xx chaos mode: an Err fault at remote.serve makes
	// this shard answer 500 without touching the index, a Delay/Block
	// fault makes it slow or wedged (bounded by the client's context).
	if err := faults.InjectCtx(r.Context(), SiteServe); err != nil {
		httperr.WriteError(w, http.StatusInternalServerError, err.Error())
		return
	}
	if !httperr.Allowed(w, r, http.MethodPost) {
		return
	}
	var req QueryRequest
	if err := httperr.DecodeBody(w, r, s.maxBody, &req); err != nil {
		httperr.WriteQueryError(w, r, err)
		return
	}
	q := req.Query()
	if err := q.Validate(); err != nil {
		httperr.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	if s.d.Halo > 0 && q.Epsilon > s.d.Halo {
		httperr.WriteError(w, http.StatusBadRequest,
			fmt.Sprintf("remote: query epsilon %v exceeds partition halo %v", q.Epsilon, s.d.Halo))
		return
	}
	ub, err := s.d.Index.UnseenBound(q)
	if err != nil {
		httperr.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	resp := QueryResponse{Shard: s.d.ShardID, UB: ub}
	if ub == 0 {
		// No query-relevant mass: the gather prunes this shard whatever it
		// answers, so it answers before queueing for a worker.
		httperr.WriteJSON(w, http.StatusOK, resp)
		return
	}
	res := s.exec.DoCtx(r.Context(), q)
	if res.Err != nil {
		httperr.WriteQueryError(w, r, res.Err)
		return
	}
	// Map to global ids in a copy: res.Streets may be shared with the
	// executor's result cache and must stay untouched.
	resp.Results = append([]core.StreetResult(nil), res.Streets...)
	GlobalIDs(resp.Results, s.d.Streets, s.d.Segments)
	resp.Stats = res.Stats
	httperr.WriteJSON(w, http.StatusOK, resp)
}
