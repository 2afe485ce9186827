package server

import (
	"fmt"
	"net/http"

	"repro"
	"repro/internal/core"
)

// This file serves the trajectory query family: POST /api/routes/topk
// (k most interesting routes) and POST /api/trajectories/soi
// (trajectory-aware SOI). The engine validates each query; the handlers
// add only the trace-point cap and the HTTP defaults of an omitted k or ε.

// maxTracePoints caps the summed trace points of one trajectory request.
const maxTracePoints = 65536

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

func (s *Server) routes(r *http.Request, req routesRequest) (routesResponse, error) {
	k, eps := kEpsDefaults(req.K, 3, req.Eps)
	routes, err := s.engine.TopRoutesCtx(r.Context(), soi.RouteQuery{
		Src:      soi.Point{X: req.Src[0], Y: req.Src[1]},
		Dst:      soi.Point{X: req.Dst[0], Y: req.Dst[1]},
		Keywords: req.Keywords,
		K:        k,
		Epsilon:  eps,
		Budget:   req.Budget,
		Alpha:    req.Alpha,
	})
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
	return resp, err
}

type trajRequest struct {
	Traces   [][][2]float64 `json:"traces"`
	Keywords []string       `json:"keywords"`
	K        int            `json:"k"`
	Eps      float64        `json:"eps"`
	Radius   float64        `json:"radius"`
}

type trajResponse struct {
	Streets []soi.CorridorStreet `json:"streets"`
}

func (s *Server) trajectories(r *http.Request, req trajRequest) (trajResponse, error) {
	total := 0
	for _, tr := range req.Traces {
		total += len(tr)
	}
	if total > maxTracePoints {
		return trajResponse{}, core.BadRequest(fmt.Errorf("%d trace points exceed the limit %d", total, maxTracePoints))
	}
	traces := make([][]soi.Point, len(req.Traces))
	for i, tr := range req.Traces {
		pts := make([]soi.Point, len(tr))
		for j, p := range tr {
			pts[j] = soi.Point{X: p[0], Y: p[1]}
		}
		traces[i] = pts
	}
	k, eps := kEpsDefaults(req.K, 10, req.Eps)
	res, err := s.engine.TrajectorySOICtx(r.Context(), soi.TrajectoryQuery{
		Traces:   traces,
		Keywords: req.Keywords,
		K:        k,
		Epsilon:  eps,
		Radius:   req.Radius,
	})
	return trajResponse{Streets: res}, err
}
