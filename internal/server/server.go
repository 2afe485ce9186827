// Package server exposes the SOI engine over HTTP for online exploration
// — the usage mode the paper motivates ("allowing for online discovery
// and exploration of interesting parts of the road network").
//
// Endpoints (all GET, all JSON):
//
//	/api/stats                         dataset summary + engine/runtime observability counters
//	/api/streets?keywords=a,b&k=10&eps=0.0005[&trace=1]
//	/api/describe?street=NAME&k=4&lambda=0.5&w=0.5&rho=0.0001&eps=0.0005
//	/api/tour?keywords=a,b&k=10&eps=0.0005&budget=0.05
//
// plus two POST endpoints — one evaluating many k-SOI queries
// concurrently over the shared index, one appending POIs to a live
// engine's ingest log:
//
//	/api/streets/batch[?trace=1]       {"queries":[{"keywords":["a"],"k":10,"eps":0.0005}, ...]}
//	/api/pois                          {"x":..,"y":..,"keywords":["a"]} or {"pois":[...],"publish":true}
//
// and the trajectory query family (POST, JSON):
//
//	/api/routes/topk                   {"src":[x,y],"dst":[x,y],"keywords":["a"],"k":3,"budget":0.05,"alpha":0}
//	/api/trajectories/soi              {"traces":[[[x,y],...],...],"keywords":["a"],"k":10,"radius":0.0003}
//
// With trace=1 every k-SOI answer carries a per-stage trace: the phase
// timings of the paper's Figure 4 and the accessed-cell/segment counts
// of its Section 6 measurements.
//
// Every server of this package — Server, TenantServer (the -tenants
// router) and RemoteServer (the -shard-addrs coordinator) — is built on
// httperr.Base, as is the shard server of internal/remote, and so answers
// the same operational endpoints:
//
//	/healthz                           liveness: 200 while the process serves
//	/readyz                            readiness: 503 "draining" once SetDraining(true), else 200
//	/metrics                           Prometheus text exposition (soi_* namespace + runtime gauges)
//	/debug/pprof/                      net/http/pprof profiles
//
// The tenant router's /metrics carries the runtime gauges only; each
// tenant's counters are under /api/{city}/metrics. The coordinator's adds
// soi_remote_shards.
//
// Handlers run concurrently (one goroutine per request, per net/http)
// against one shared engine; the engine's one admission gate bounds how
// many queries of every family are evaluated at once, and its executor
// caches repeated k-SOI queries.
//
// The query path is robust under load and failure: every k-SOI handler
// threads the request context into the engine, so a client that goes
// away cancels its evaluation at the next cooperative checkpoint (499
// accounting), an expired per-query deadline maps to 504, and load shed
// by the engine's admission control maps to 503 with a Retry-After
// hint. The POST endpoints reject non-POST methods with 405 and cap
// their request bodies with Config.MaxBatchBytes (413 on overflow).
// /api/pois against an engine built without live ingest answers 501,
// since the deployment simply lacks a write path.
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	soi "repro"
	"repro/internal/httperr"
	"repro/internal/stats"
)

// StatusClientClosedRequest is the nginx-convention 499 status recorded
// when the client cancelled the request before the answer was ready. No
// client sees it (the connection is gone); it keeps access accounting
// honest. It is an alias of the shared mapper's constant.
const StatusClientClosedRequest = httperr.StatusClientClosedRequest

// DefaultMaxBatchBytes bounds the /api/streets/batch request body when
// Config leaves MaxBatchBytes zero: 1 MiB fits the 1024-query batch
// limit with room to spare while keeping a hostile body from exhausting
// memory.
const DefaultMaxBatchBytes = 1 << 20

// Config tunes the HTTP layer's robustness knobs.
type Config struct {
	// MaxBatchBytes caps the /api/streets/batch request body; bodies over
	// the cap get the uniform JSON error with status 413. 0 means
	// DefaultMaxBatchBytes; negative disables the cap.
	MaxBatchBytes int64
}

// Server routes HTTP requests to an Engine. Its operational endpoints
// and draining come from the shared httperr.Base.
type Server struct {
	*httperr.Base
	engine        *soi.Engine
	maxBatchBytes int64
}

// New wires the handler set around an engine with default Config.
func New(engine *soi.Engine) *Server {
	return NewWithConfig(engine, Config{})
}

// NewWithConfig wires the handler set around an engine.
func NewWithConfig(engine *soi.Engine, cfg Config) *Server {
	maxBatch := cfg.MaxBatchBytes
	if maxBatch == 0 {
		maxBatch = DefaultMaxBatchBytes
	}
	notLoaded, rec := "engine not loaded", (*stats.Recorder)(nil)
	if engine != nil {
		notLoaded, rec = "", engine.StatsRecorder()
	}
	s := &Server{Base: httperr.NewBase(notLoaded, rec, nil), engine: engine, maxBatchBytes: maxBatch}
	s.HandleFunc("/api/stats", s.handleStats)
	s.HandleFunc("/api/streets", s.handleStreets)
	s.HandleFunc("/api/streets/batch", s.handleStreetsBatch)
	s.HandleFunc("/api/pois", s.handlePOIs)
	s.HandleFunc("/api/describe", s.handleDescribe)
	s.HandleFunc("/api/tour", s.handleTour)
	s.HandleFunc("/api/routes/topk", s.handleRoutesTopK)
	s.HandleFunc("/api/trajectories/soi", s.handleTrajectorySOI)
	return s
}

func writeError(w http.ResponseWriter, status int, err error) {
	httperr.WriteError(w, status, err.Error())
}

// The query* helpers read one parameter of a request's parsed query
// string. A handler calls r.URL.Query() — a full parse of the raw query —
// once and hands the values down.

// queryFloat parses an optional float parameter with a default.
func queryFloat(vals url.Values, name string, def float64) (float64, error) {
	raw := vals.Get(name)
	if raw == "" {
		return def, nil
	}
	v, err := strconv.ParseFloat(raw, 64)
	if err != nil {
		return 0, fmt.Errorf("parameter %q: %w", name, err)
	}
	return v, nil
}

// queryInt parses an optional integer parameter with a default.
func queryInt(vals url.Values, name string, def int) (int, error) {
	raw := vals.Get(name)
	if raw == "" {
		return def, nil
	}
	v, err := strconv.Atoi(raw)
	if err != nil {
		return 0, fmt.Errorf("parameter %q: %w", name, err)
	}
	return v, nil
}

func queryKeywords(vals url.Values) []string {
	raw := vals.Get("keywords")
	if raw == "" {
		return nil
	}
	parts := strings.Split(raw, ",")
	out := parts[:0]
	for _, p := range parts {
		if t := strings.TrimSpace(p); t != "" {
			out = append(out, t)
		}
	}
	return out
}

// statsResponse is the /api/stats payload. The top-level dataset keys
// (streets, pois, photos) are a stable contract; the stats and runtime
// sections carry the live observability counters.
type statsResponse struct {
	Streets int             `json:"streets"`
	POIs    int             `json:"pois"`
	Photos  int             `json:"photos"`
	Stats   stats.Snapshot  `json:"stats"`
	Runtime httperr.Runtime `json:"runtime"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, errors.New("GET only"))
		return
	}
	httperr.WriteJSON(w, http.StatusOK, statsResponse{
		Streets: s.engine.NumStreets(),
		POIs:    s.engine.NumPOIs(),
		Photos:  s.engine.NumPhotos(),
		Stats:   s.engine.StatsSnapshot(),
		Runtime: httperr.ReadRuntime(),
	})
}

// streetsResponse is the /api/streets payload; Trace is present only
// when the request asked for it with trace=1.
type streetsResponse struct {
	Streets []soi.Street    `json:"streets"`
	Trace   *soi.QueryTrace `json:"trace,omitempty"`
}

// traceWanted reports whether the request opted into per-query traces.
func traceWanted(vals url.Values) bool {
	switch vals.Get("trace") {
	case "", "0", "false":
		return false
	}
	return true
}

// encodeStreets renders the untraced /api/streets body of an answer: the
// bytes httperr.WriteJSON would send for it, kept with the result-cache
// entry so that a repeated query is answered without encoding. An answer
// that does not encode yields nil, and the handler's WriteJSON answers it
// with a 500.
func encodeStreets(streets []soi.Street) []byte {
	if streets == nil {
		streets = []soi.Street{}
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(streetsResponse{Streets: streets}); err != nil {
		return nil
	}
	return buf.Bytes()
}

func (s *Server) handleStreets(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, errors.New("GET only"))
		return
	}
	vals := r.URL.Query()
	q, err := parseQuery(vals)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	resp := streetsResponse{}
	if traceWanted(vals) {
		res, trace, err := s.engine.TopStreetsTracedCtx(r.Context(), q)
		if err != nil {
			httperr.WriteQueryError(w, r, err)
			return
		}
		resp.Streets, resp.Trace = res, &trace
	} else {
		res, body, err := s.engine.TopStreetsEncodedCtx(r.Context(), q, encodeStreets)
		if err != nil {
			httperr.WriteQueryError(w, r, err)
			return
		}
		if body != nil {
			// A result-cache hit: body is what WriteJSON sends below for
			// the same answer, encoded once for the cache entry.
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusOK)
			_, _ = w.Write(body) // past the header nothing can be reported
			return
		}
		resp.Streets = res
	}
	if resp.Streets == nil {
		resp.Streets = []soi.Street{}
	}
	httperr.WriteJSON(w, http.StatusOK, resp)
}

// batchRequest is the /api/streets/batch request payload.
type batchRequest struct {
	Queries []batchQuery `json:"queries"`
}

// batchQuery is one k-SOI query of a batch request; k and eps fall back
// to the /api/streets defaults when omitted.
type batchQuery struct {
	Keywords []string `json:"keywords"`
	K        int      `json:"k"`
	Eps      float64  `json:"eps"`
}

// batchResponse is the /api/streets/batch payload: one entry per query,
// in request order, each succeeding or failing independently.
type batchResponse struct {
	Results []batchEntry `json:"results"`
}

type batchEntry struct {
	// Streets is an array (possibly empty) when the query succeeded and
	// null when Error is set, so clients can distinguish "no matching
	// streets" from a failure.
	Streets []soi.Street `json:"streets"`
	Error   string       `json:"error,omitempty"`
	// Trace is present when the request asked for trace=1; coalesced
	// queries share the trace of their one evaluation.
	Trace *soi.QueryTrace `json:"trace,omitempty"`
}

// maxBatchQueries caps one batch request; larger workloads should be
// split so that a single request cannot monopolize the worker pool.
const maxBatchQueries = 1024

func (s *Server) handleStreetsBatch(w http.ResponseWriter, r *http.Request) {
	var req batchRequest
	if !httperr.DecodePost(w, r, s.maxBatchBytes, &req) {
		return
	}
	if len(req.Queries) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("no queries"))
		return
	}
	if len(req.Queries) > maxBatchQueries {
		writeError(w, http.StatusBadRequest, fmt.Errorf("%d queries exceed the batch limit %d", len(req.Queries), maxBatchQueries))
		return
	}
	qs := make([]soi.Query, len(req.Queries))
	for i, q := range req.Queries {
		// Defaults only: the engine refuses each bad member on its own.
		k, eps := kEpsDefaults(q.K, 10, q.Eps)
		qs[i] = soi.Query{Keywords: q.Keywords, K: k, Epsilon: eps}
	}
	withTrace := traceWanted(r.URL.Query())
	results := s.engine.TopStreetsBatchCtx(r.Context(), qs)
	resp := batchResponse{Results: make([]batchEntry, len(results))}
	allShed := len(results) > 0
	for i, res := range results {
		if res.Err == nil || !errors.Is(res.Err, soi.ErrOverloaded) {
			allShed = false
		}
		if res.Err != nil {
			resp.Results[i] = batchEntry{Error: res.Err.Error()}
			continue
		}
		streets := res.Streets
		if streets == nil {
			streets = []soi.Street{}
		}
		resp.Results[i] = batchEntry{Streets: streets}
		if withTrace {
			trace := res.Trace
			resp.Results[i].Trace = &trace
		}
	}
	if allShed {
		// Every query in the batch was shed: surface the overload as a
		// retryable 503 (the per-entry errors still describe each query).
		w.Header().Set("Retry-After", "1")
		httperr.WriteJSON(w, http.StatusServiceUnavailable, resp)
		return
	}
	httperr.WriteJSON(w, http.StatusOK, resp)
}

// poiBody is one POI of a write request.
type poiBody struct {
	X        float64  `json:"x"`
	Y        float64  `json:"y"`
	Keywords []string `json:"keywords"`
	Weight   float64  `json:"weight"`
}

// poisRequest is the /api/pois request payload. A single POI can be
// given inline at the top level, a batch under "pois"; "publish" asks
// for the appended deltas to be folded into a fresh epoch before the
// response is written (otherwise they stay pending until the engine's
// batch threshold or an operator publish folds them).
type poisRequest struct {
	poiBody
	POIs    []poiBody `json:"pois"`
	Publish bool      `json:"publish"`
}

// poisResponse reports the write outcome: how many deltas this request
// appended, how many are pending in the delta log after it, the epoch
// serving queries when the response was written, and whether this
// request's publish ran.
type poisResponse struct {
	Added     int    `json:"added"`
	Pending   int    `json:"pending"`
	Epoch     uint64 `json:"epoch"`
	Published bool   `json:"published"`
}

// maxPOIBatch caps one write request, mirroring maxBatchQueries.
const maxPOIBatch = 1024

func (s *Server) handlePOIs(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost && !s.engine.Live() {
		// Not a client error and not a fault: this deployment was built
		// without a write path.
		writeError(w, http.StatusNotImplemented, soi.ErrNotLive)
		return
	}
	var req poisRequest
	if !httperr.DecodePost(w, r, s.maxBatchBytes, &req) {
		return
	}
	bodies := req.POIs
	if len(bodies) == 0 && len(req.Keywords) > 0 {
		bodies = []poiBody{req.poiBody}
	}
	if len(bodies) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("no POIs: give one inline or a non-empty \"pois\" array"))
		return
	}
	if len(bodies) > maxPOIBatch {
		writeError(w, http.StatusBadRequest, fmt.Errorf("%d POIs exceed the batch limit %d", len(bodies), maxPOIBatch))
		return
	}
	pois := make([]soi.POIInput, len(bodies))
	for i, b := range bodies {
		if len(b.Keywords) == 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("poi %d: keywords required", i))
			return
		}
		pois[i] = soi.POIInput{X: b.X, Y: b.Y, Keywords: b.Keywords, Weight: b.Weight}
	}
	pending, err := s.engine.AddPOIs(pois)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	resp := poisResponse{Added: len(pois), Pending: pending}
	if req.Publish {
		if _, _, err := s.engine.Publish(); err != nil {
			// The appends landed; the publish failing is a server fault.
			writeError(w, http.StatusInternalServerError, fmt.Errorf("publish after append: %w", err))
			return
		}
		resp.Published = true
		_, _, resp.Pending = s.engine.IngestCounts()
	}
	resp.Epoch = s.engine.Epoch()
	httperr.WriteJSON(w, http.StatusOK, resp)
}

// parseQuery reads the k-SOI parameters every GET query endpoint shares:
// keywords, k (default 10) and eps (default the cell size).
func parseQuery(vals url.Values) (soi.Query, error) {
	k, err := queryInt(vals, "k", 10)
	if err != nil {
		return soi.Query{}, err
	}
	eps, err := queryFloat(vals, "eps", soi.DefaultCellSize)
	if err != nil {
		return soi.Query{}, err
	}
	return soi.Query{Keywords: queryKeywords(vals), K: k, Epsilon: eps}, nil
}

func (s *Server) handleDescribe(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, errors.New("GET only"))
		return
	}
	vals := r.URL.Query()
	street := vals.Get("street")
	if street == "" {
		writeError(w, http.StatusBadRequest, errors.New("parameter \"street\" required"))
		return
	}
	k, err := queryInt(vals, "k", 4)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	lambda, err := queryFloat(vals, "lambda", 0.5)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	wWeight, err := queryFloat(vals, "w", 0.5)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	rho, err := queryFloat(vals, "rho", 0.0001)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	eps, err := queryFloat(vals, "eps", soi.DefaultCellSize)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	sum, err := s.engine.DescribeStreetCtx(r.Context(), street, soi.SummaryParams{
		K: k, Lambda: lambda, W: wWeight, Rho: rho, Epsilon: eps,
	})
	switch {
	case errors.Is(err, soi.ErrUnknownStreet), errors.Is(err, soi.ErrNoPhotos):
		writeError(w, http.StatusNotFound, err)
		return
	case err != nil:
		httperr.WriteQueryError(w, r, err)
		return
	}
	httperr.WriteJSON(w, http.StatusOK, sum)
}

func (s *Server) handleTour(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, errors.New("GET only"))
		return
	}
	vals := r.URL.Query()
	q, err := parseQuery(vals)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	budget, err := queryFloat(vals, "budget", 0)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	tour, err := s.engine.RecommendTourCtx(r.Context(), q, budget)
	if err != nil {
		httperr.WriteQueryError(w, r, err)
		return
	}
	httperr.WriteJSON(w, http.StatusOK, tour)
}
