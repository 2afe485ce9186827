package server

import (
	"errors"
	"fmt"
	"math"
	"net/http"

	"repro"
	"repro/internal/httperr"
)

// This file serves the trajectory query family: POST /api/routes/topk
// (k most interesting routes) and POST /api/trajectories/soi
// (trajectory-aware SOI). Both follow the batch endpoint's conventions:
// POST-only with an Allow header on 405, a bounded request body (413 on
// overrun), 400 on malformed or invalid queries, and query-path errors
// mapped through the shared httperr table (503+Retry-After on shed, 504
// on deadline, 500 on recovered panics).

// maxTracePoints caps the summed trace points of one trajectory request.
const maxTracePoints = 65536

// finite rejects the NaN/±Inf request numerics that would otherwise
// slip through sign checks (NaN compares false against everything) into
// the query layer.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// kEpsDefaults fills an omitted (zero) k with the endpoint's default and
// an omitted ε with the /api/streets default.
func kEpsDefaults(k, defK int, eps float64) (int, float64) {
	if k == 0 {
		k = defK
	}
	if eps == 0 {
		eps = soi.DefaultCellSize
	}
	return k, eps
}

// checkKEps refuses a negative k and an ε that is negative or not finite.
func checkKEps(k int, eps float64) error {
	if k < 0 {
		return fmt.Errorf("negative k %d", k)
	}
	if eps < 0 || !finite(eps) {
		return fmt.Errorf("eps %v is not a non-negative finite number", eps)
	}
	return nil
}

type routesRequest struct {
	Src      [2]float64 `json:"src"`
	Dst      [2]float64 `json:"dst"`
	Keywords []string   `json:"keywords"`
	K        int        `json:"k"`
	Eps      float64    `json:"eps"`
	Budget   float64    `json:"budget"`
	Alpha    float64    `json:"alpha"`
}

type routeEntry struct {
	Polyline [][2]float64 `json:"polyline"`
	Streets  []string     `json:"streets"`
	Length   float64      `json:"length"`
	Interest float64      `json:"interest"`
	Score    float64      `json:"score"`
}

type routesResponse struct {
	Routes []routeEntry `json:"routes"`
}

func (s *Server) handleRoutesTopK(w http.ResponseWriter, r *http.Request) {
	var req routesRequest
	if !httperr.DecodePost(w, r, s.maxBatchBytes, &req) {
		return
	}
	if len(req.Keywords) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("no keywords"))
		return
	}
	for _, c := range [...]float64{req.Src[0], req.Src[1], req.Dst[0], req.Dst[1]} {
		if !finite(c) {
			writeError(w, http.StatusBadRequest, fmt.Errorf("non-finite coordinate %v", c))
			return
		}
	}
	if req.Budget <= 0 || !finite(req.Budget) {
		writeError(w, http.StatusBadRequest, fmt.Errorf("budget %v is not a positive finite number", req.Budget))
		return
	}
	if req.Alpha < 0 || !finite(req.Alpha) {
		writeError(w, http.StatusBadRequest, fmt.Errorf("alpha %v is not a non-negative finite number", req.Alpha))
		return
	}
	k, eps := kEpsDefaults(req.K, 3, req.Eps)
	if err := checkKEps(k, eps); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	routes, err := s.engine.TopRoutesCtx(r.Context(), soi.RouteQuery{
		Src:      soi.Point{X: req.Src[0], Y: req.Src[1]},
		Dst:      soi.Point{X: req.Dst[0], Y: req.Dst[1]},
		Keywords: req.Keywords,
		K:        k,
		Epsilon:  eps,
		Budget:   req.Budget,
		Alpha:    req.Alpha,
	})
	if err != nil {
		httperr.WriteQueryError(w, r, err)
		return
	}
	resp := routesResponse{Routes: make([]routeEntry, len(routes))}
	for i, rt := range routes {
		entry := routeEntry{
			Polyline: make([][2]float64, len(rt.Polyline)),
			Streets:  rt.Streets,
			Length:   rt.Length,
			Interest: rt.Interest,
			Score:    rt.Score,
		}
		for j, p := range rt.Polyline {
			entry.Polyline[j] = [2]float64{p.X, p.Y}
		}
		resp.Routes[i] = entry
	}
	httperr.WriteJSON(w, http.StatusOK, resp)
}

type trajRequest struct {
	Traces   [][][2]float64 `json:"traces"`
	Keywords []string       `json:"keywords"`
	K        int            `json:"k"`
	Eps      float64        `json:"eps"`
	Radius   float64        `json:"radius"`
}

type corridorEntry struct {
	Name     string  `json:"name"`
	Coverage float64 `json:"coverage"`
	Interest float64 `json:"interest"`
	Score    float64 `json:"score"`
}

type trajResponse struct {
	Streets []corridorEntry `json:"streets"`
}

func (s *Server) handleTrajectorySOI(w http.ResponseWriter, r *http.Request) {
	var req trajRequest
	if !httperr.DecodePost(w, r, s.maxBatchBytes, &req) {
		return
	}
	if len(req.Traces) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("no traces"))
		return
	}
	total := 0
	for _, tr := range req.Traces {
		total += len(tr)
	}
	if total > maxTracePoints {
		writeError(w, http.StatusBadRequest, fmt.Errorf("%d trace points exceed the limit %d", total, maxTracePoints))
		return
	}
	if len(req.Keywords) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("no keywords"))
		return
	}
	if req.Radius < 0 || !finite(req.Radius) {
		writeError(w, http.StatusBadRequest, fmt.Errorf("radius %v is not a non-negative finite number", req.Radius))
		return
	}
	k, eps := kEpsDefaults(req.K, 10, req.Eps)
	if err := checkKEps(k, eps); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	traces := make([][]soi.Point, len(req.Traces))
	for i, tr := range req.Traces {
		pts := make([]soi.Point, len(tr))
		for j, p := range tr {
			pts[j] = soi.Point{X: p[0], Y: p[1]}
		}
		traces[i] = pts
	}
	res, err := s.engine.TrajectorySOICtx(r.Context(), soi.TrajectoryQuery{
		Traces:   traces,
		Keywords: req.Keywords,
		K:        k,
		Epsilon:  eps,
		Radius:   req.Radius,
	})
	if err != nil {
		httperr.WriteQueryError(w, r, err)
		return
	}
	resp := trajResponse{Streets: make([]corridorEntry, len(res))}
	for i, c := range res {
		resp.Streets[i] = corridorEntry{Name: c.Name, Coverage: c.Coverage, Interest: c.Interest, Score: c.Score}
	}
	httperr.WriteJSON(w, http.StatusOK, resp)
}
