// Package server exposes the SOI engine over HTTP for online exploration
// — the usage mode the paper motivates ("allowing for online discovery
// and exploration of interesting parts of the road network"):
//
//	GET  /api/stats                    dataset summary + engine/runtime observability counters
//	GET  /api/streets?keywords=a,b&k=10&eps=0.0005[&trace=1]
//	GET  /api/describe?street=NAME&k=4&lambda=0.5&w=0.5&rho=0.0001&eps=0.0005
//	GET  /api/tour?keywords=a,b&k=10&eps=0.0005&budget=0.05
//	POST /api/streets/batch[?trace=1]  {"queries":[{"keywords":["a"],"k":10,"eps":0.0005}, ...]}
//	POST /api/pois                     {"x":..,"y":..,"keywords":["a"]} or {"pois":[...],"publish":true}
//	POST /api/routes/topk              {"src":[x,y],"dst":[x,y],"keywords":["a"],"k":3,"budget":0.05,"alpha":0}
//	POST /api/trajectories/soi         {"traces":[[[x,y],...],...],"keywords":["a"],"k":10,"radius":0.0003}
//
// With trace=1 every k-SOI answer carries a per-stage trace: the phase
// timings of the paper's Figure 4 and the accessed-cell/segment counts
// of its Section 6 measurements.
//
// Every route, and the coordinator's /api/streets and /api/stats, is one
// row of one handler skeleton (endpoint.serve): the method check (405
// with an Allow header), the request read into a typed value — a GET's
// query string with the defaults of omitted parameters, or a POST's JSON
// body capped at Config.MaxBatchBytes (413 past it) —, the engine call
// with the request's context, and the JSON answer. A route adds only its
// wire limits (1,024 batch queries or POIs, 65,536 trace points), the
// defaults of a body's omitted k or ε and the 501 of /api/pois on an
// engine without a write path. Every query quantity is checked once, by
// the engine family's Validate before admission, so Go and HTTP callers
// are refused by the same code; errors map through httperr.Status: a
// refusal (soi.ErrBadRequest) is 400, nothing to answer (soi.ErrNoMatch)
// 404, shed load 503 with Retry-After, an expired deadline 504, a client
// gone 499, and an error nobody typed 500.
//
// Every server of this package — Server, TenantServer (the -tenants
// router, which forwards into a Server per city) and RemoteServer (the
// -shard-addrs coordinator) — is built on httperr.Base, as is the shard
// server of internal/remote, and so answers /healthz, /readyz (503 while
// draining), /metrics and /debug/pprof/. The tenant router's /metrics
// carries the runtime gauges only; each tenant's counters are under
// /api/{city}/metrics. The coordinator's adds soi_remote_shards.
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"

	soi "repro"
	"repro/internal/core"
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
	const get, post = http.MethodGet, http.MethodPost
	body := &s.maxBatchBytes
	s.HandleFunc("/api/stats", endpoint[struct{}, statsResponse]{method: get, params: noParams, call: s.stats}.serve)
	s.HandleFunc("/api/streets", endpoint[streetsRequest, streetsResponse]{method: get, params: parseStreets, call: s.streets, write: writeStreets}.serve)
	s.HandleFunc("/api/streets/batch", endpoint[batchRequest, batchResponse]{method: post, maxBody: body, call: s.batch, write: writeBatch}.serve)
	s.HandleFunc("/api/pois", endpoint[poisRequest, poisResponse]{method: post, maxBody: body, call: s.pois}.serve)
	s.HandleFunc("/api/describe", endpoint[describeRequest, soi.Summary]{method: get, params: parseDescribe, call: s.describe}.serve)
	s.HandleFunc("/api/tour", endpoint[tourRequest, soi.Tour]{method: get, params: parseTour, call: s.tour}.serve)
	s.HandleFunc("/api/routes/topk", endpoint[routesRequest, routesResponse]{method: post, maxBody: body, call: s.routes}.serve)
	s.HandleFunc("/api/trajectories/soi", endpoint[trajRequest, trajResponse]{method: post, maxBody: body, call: s.trajectories}.serve)
	return s
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

// noParams is the query string reader of a route that takes none.
func noParams(url.Values) (struct{}, error) { return struct{}{}, nil }

func (s *Server) stats(*http.Request, struct{}) (statsResponse, error) {
	return statsResponse{
		Streets: s.engine.NumStreets(),
		POIs:    s.engine.NumPOIs(),
		Photos:  s.engine.NumPhotos(),
		Stats:   s.engine.StatsSnapshot(),
		Runtime: httperr.ReadRuntime(),
	}, nil
}

// streetsRequest is a GET k-SOI request: the query and its opt-in flags,
// trace=1 (a per-stage trace with the answer) and, on the coordinator,
// partial=1 (a degraded answer over the shards that answered).
type streetsRequest struct {
	soi.Query
	trace, partial bool
}

func parseStreets(vals url.Values) (streetsRequest, error) {
	p := params{Values: vals}
	req := streetsRequest{Query: p.query(10), trace: p.flag("trace"), partial: p.flag("partial")}
	return req, p.err
}

// streetsResponse is the /api/streets payload; Trace is present only
// when the request asked for it with trace=1. body, when set, is the
// result-cache entry's encoding of the answer.
type streetsResponse struct {
	Streets []soi.Street    `json:"streets"`
	Trace   *soi.QueryTrace `json:"trace,omitempty"`
	body    []byte
}

// encodeStreets renders the untraced /api/streets body of an answer: the
// bytes httperr.WriteJSON would send for it, kept with the result-cache
// entry so that a repeated query is answered without encoding. An answer
// that does not encode yields nil, and writeStreets' WriteJSON answers it
// with a 500.
func encodeStreets(streets []soi.Street) []byte {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(streetsResponse{Streets: nonNil(streets)}); err != nil {
		return nil
	}
	return buf.Bytes()
}

// nonNil makes an empty answer encode as [], not null.
func nonNil(streets []soi.Street) []soi.Street {
	if streets == nil {
		return []soi.Street{}
	}
	return streets
}

func (s *Server) streets(r *http.Request, req streetsRequest) (streetsResponse, error) {
	if req.trace {
		res, trace, err := s.engine.TopStreetsTracedCtx(r.Context(), req.Query)
		return streetsResponse{Streets: nonNil(res), Trace: &trace}, err
	}
	res, body, err := s.engine.TopStreetsEncodedCtx(r.Context(), req.Query, encodeStreets)
	return streetsResponse{Streets: nonNil(res), body: body}, err
}

// writeStreets sends a result-cache hit's encoded body as it is — the
// bytes WriteJSON sends for the same answer — and any other answer
// through WriteJSON.
func writeStreets(w http.ResponseWriter, resp streetsResponse) {
	if resp.body == nil {
		httperr.WriteJSON(w, http.StatusOK, resp)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(resp.body) // past the header nothing can be reported
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
// in request order, each succeeding or failing independently. shed
// reports that every query was shed.
type batchResponse struct {
	Results []batchEntry `json:"results"`
	shed    bool
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

func (s *Server) batch(r *http.Request, req batchRequest) (batchResponse, error) {
	if len(req.Queries) == 0 {
		return batchResponse{}, core.BadRequest(errors.New("no queries"))
	}
	if len(req.Queries) > maxBatchQueries {
		return batchResponse{}, core.BadRequest(fmt.Errorf("%d queries exceed the batch limit %d", len(req.Queries), maxBatchQueries))
	}
	qs := make([]soi.Query, len(req.Queries))
	for i, q := range req.Queries {
		// Defaults only: the engine refuses each bad member on its own.
		k, eps := kEpsDefaults(q.K, 10, q.Eps)
		qs[i] = soi.Query{Keywords: q.Keywords, K: k, Epsilon: eps}
	}
	withTrace := (&params{Values: r.URL.Query()}).flag("trace")
	results := s.engine.TopStreetsBatchCtx(r.Context(), qs)
	resp := batchResponse{Results: make([]batchEntry, len(results)), shed: len(results) > 0}
	for i, res := range results {
		if !errors.Is(res.Err, soi.ErrOverloaded) {
			resp.shed = false
		}
		if res.Err != nil {
			resp.Results[i] = batchEntry{Error: res.Err.Error()}
			continue
		}
		resp.Results[i] = batchEntry{Streets: nonNil(res.Streets)}
		if withTrace {
			trace := res.Trace
			resp.Results[i].Trace = &trace
		}
	}
	return resp, nil
}

// writeBatch answers a batch whose every query was shed with a retryable
// 503 (the per-entry errors still describe each query), any other with
// 200.
func writeBatch(w http.ResponseWriter, resp batchResponse) {
	status := http.StatusOK
	if resp.shed {
		w.Header().Set("Retry-After", "1")
		status = http.StatusServiceUnavailable
	}
	httperr.WriteJSON(w, status, resp)
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

func (s *Server) pois(_ *http.Request, req poisRequest) (poisResponse, error) {
	if !s.engine.Live() {
		// Not a client error and not a fault: this deployment was built
		// without a write path.
		return poisResponse{}, httperr.WithStatus(http.StatusNotImplemented, soi.ErrNotLive)
	}
	bodies := req.POIs
	if len(bodies) == 0 && len(req.Keywords) > 0 {
		bodies = []poiBody{req.poiBody}
	}
	if len(bodies) == 0 {
		return poisResponse{}, core.BadRequest(errors.New("no POIs: give one inline or a non-empty \"pois\" array"))
	}
	if len(bodies) > maxPOIBatch {
		return poisResponse{}, core.BadRequest(fmt.Errorf("%d POIs exceed the batch limit %d", len(bodies), maxPOIBatch))
	}
	pois := make([]soi.POIInput, len(bodies))
	for i, b := range bodies {
		pois[i] = soi.POIInput{X: b.X, Y: b.Y, Keywords: b.Keywords, Weight: b.Weight}
	}
	pending, err := s.engine.AddPOIs(pois)
	if err != nil {
		return poisResponse{}, err
	}
	resp := poisResponse{Added: len(pois), Pending: pending}
	if req.Publish {
		if _, _, err := s.engine.Publish(); err != nil {
			// The appends landed; the publish failing is a server fault.
			return poisResponse{}, fmt.Errorf("publish after append: %w", err)
		}
		resp.Published = true
		_, _, resp.Pending = s.engine.IngestCounts()
	}
	resp.Epoch = s.engine.Epoch()
	return resp, nil
}

// describeRequest is a GET /api/describe request. Omitted λ, w, ρ and ε
// stay zero, which the engine reads as the paper's defaults.
type describeRequest struct {
	street string
	params soi.SummaryParams
}

func parseDescribe(vals url.Values) (describeRequest, error) {
	p := params{Values: vals}
	req := describeRequest{street: vals.Get("street"), params: soi.SummaryParams{
		K: p.int("k", 4), Lambda: p.float("lambda", 0), W: p.float("w", 0), Rho: p.float("rho", 0), Epsilon: p.float("eps", 0),
	}}
	if req.street == "" {
		return req, core.BadRequest(errors.New("parameter \"street\" required"))
	}
	return req, p.err
}

func (s *Server) describe(r *http.Request, req describeRequest) (soi.Summary, error) {
	return s.engine.DescribeStreetCtx(r.Context(), req.street, req.params)
}

// tourRequest is a GET /api/tour request: the k-SOI query and the walking
// budget (omitted: 0, which the engine refuses).
type tourRequest struct {
	soi.Query
	budget float64
}

func parseTour(vals url.Values) (tourRequest, error) {
	p := params{Values: vals}
	req := tourRequest{Query: p.query(10), budget: p.float("budget", 0)}
	return req, p.err
}

func (s *Server) tour(r *http.Request, req tourRequest) (soi.Tour, error) {
	return s.engine.RecommendTourCtx(r.Context(), req.Query, req.budget)
}
