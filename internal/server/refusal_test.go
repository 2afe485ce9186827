package server

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	soi "repro"
	"repro/internal/stats"
)

// admissionCounters is what moves when a query is admitted or ends
// without an answer: the queue-wait observations every family's admission
// records, and each family's outcome counters.
type admissionCounters struct {
	queueWaits   int64
	ksoi, family stats.Outcomes[int64]
}

func admissions(e *soi.Engine) admissionCounters {
	s := e.StatsSnapshot()
	return admissionCounters{s.Engine.QueueWait.Count, s.Engine.Outcomes, s.Traj.Outcomes}
}

// TestRefusalsMatchAcrossDoors drives every refusal of a query family
// through both doors, the Go API and HTTP. The Go call must return an
// error matching soi.ErrBadRequest and the family's own sentinel; the
// HTTP request must answer 400 with the same error text, so the same code
// refused both; and neither may be admitted — no queue wait is recorded
// and no outcome counter moves. A row whose query JSON cannot carry (a
// NaN, a k of 0 that HTTP reads as omitted) sends the nearest request
// HTTP can, which must still be a 400 refused before admission.
func TestRefusalsMatchAcrossDoors(t *testing.T) {
	nan := math.NaN()
	src, dst := soi.Point{X: 0, Y: 0}, soi.Point{X: 0.002, Y: 0.002}
	route := func(edit func(*soi.RouteQuery)) func(*soi.Engine) error {
		q := soi.RouteQuery{Src: src, Dst: dst, Keywords: []string{"shop"}, K: 2, Epsilon: soi.DefaultCellSize, Budget: 0.02}
		edit(&q)
		return func(e *soi.Engine) error { _, err := e.TopRoutesCtx(context.Background(), q); return err }
	}
	trace := [][]soi.Point{{{X: 0.0002, Y: 0.00005}, {X: 0.0018, Y: 0.00005}}}
	trajectory := func(edit func(*soi.TrajectoryQuery)) func(*soi.Engine) error {
		q := soi.TrajectoryQuery{Traces: trace, Keywords: []string{"shop"}, K: 5, Epsilon: soi.DefaultCellSize, Radius: 0.0003}
		edit(&q)
		return func(e *soi.Engine) error { _, err := e.TrajectorySOICtx(context.Background(), q); return err }
	}
	streets := func(q soi.Query) func(*soi.Engine) error {
		return func(e *soi.Engine) error { _, err := e.TopStreets(q); return err }
	}
	tour := func(q soi.Query, budget float64) func(*soi.Engine) error {
		return func(e *soi.Engine) error { _, err := e.RecommendTour(q, budget); return err }
	}
	addPOI := func(p soi.POIInput) func(*soi.Engine) error {
		return func(e *soi.Engine) error { _, err := e.AddPOIs([]soi.POIInput{p}); return err }
	}
	shop := []string{"shop"}
	const (
		routesPath = "/api/routes/topk"
		trajPath   = "/api/trajectories/soi"
		routeBody  = `"src":[0,0],"dst":[0.002,0.002]`
		traceBody  = `"traces":[[[0.0002,0.00005],[0.0018,0.00005]]]`
	)
	cases := []struct {
		name string
		live bool
		goDo func(*soi.Engine) error
		want error // the family's sentinel; soi.ErrBadRequest when it has none
		// method, path and body of the HTTP request; sameText is false
		// where the request can only approximate the Go query.
		method, path, body string
		sameText           bool
	}{
		{"streets: no keywords", false, streets(soi.Query{K: 10, Epsilon: soi.DefaultCellSize}), soi.ErrBadRequest,
			http.MethodGet, "/api/streets?k=10", "", true},
		{"streets: k = 0", false, streets(soi.Query{Keywords: shop, Epsilon: soi.DefaultCellSize}), soi.ErrBadRequest,
			http.MethodGet, "/api/streets?keywords=shop&k=0", "", true},
		{"streets: ε NaN", false, streets(soi.Query{Keywords: shop, K: 10, Epsilon: nan}), soi.ErrBadEpsilon,
			http.MethodGet, "/api/streets?keywords=shop&eps=NaN", "", true},
		{"routes: no keywords", false, route(func(q *soi.RouteQuery) { q.Keywords = nil }), soi.ErrBadRequest,
			http.MethodPost, routesPath, `{` + routeBody + `,"k":2,"budget":0.02}`, true},
		{"routes: source NaN", false, route(func(q *soi.RouteQuery) { q.Src = soi.Point{X: nan, Y: nan} }), soi.ErrBadRequest,
			http.MethodPost, routesPath, `{"src":[1e999,0],"dst":[0.002,0.002],"keywords":["shop"],"budget":0.02}`, false},
		{"routes: k = 0", false, route(func(q *soi.RouteQuery) { q.K = 0 }), soi.ErrBadRequest,
			http.MethodPost, routesPath, `{` + routeBody + `,"keywords":["shop"],"k":-2,"budget":0.02}`, false},
		{"routes: k = -2", false, route(func(q *soi.RouteQuery) { q.K = -2 }), soi.ErrBadRequest,
			http.MethodPost, routesPath, `{` + routeBody + `,"keywords":["shop"],"k":-2,"budget":0.02}`, true},
		{"routes: budget NaN", false, route(func(q *soi.RouteQuery) { q.Budget = nan }), soi.ErrBadRequest,
			http.MethodPost, routesPath, `{` + routeBody + `,"keywords":["shop"],"k":2}`, false},
		{"routes: budget -1", false, route(func(q *soi.RouteQuery) { q.Budget = -1 }), soi.ErrBadRequest,
			http.MethodPost, routesPath, `{` + routeBody + `,"keywords":["shop"],"k":2,"budget":-1}`, true},
		{"routes: α = -1", false, route(func(q *soi.RouteQuery) { q.Alpha = -1 }), soi.ErrBadRequest,
			http.MethodPost, routesPath, `{` + routeBody + `,"keywords":["shop"],"k":2,"budget":0.02,"alpha":-1}`, true},
		{"routes: ε -1", false, route(func(q *soi.RouteQuery) { q.Epsilon = -1 }), soi.ErrBadEpsilon,
			http.MethodPost, routesPath, `{` + routeBody + `,"keywords":["shop"],"k":2,"budget":0.02,"eps":-1}`, true},
		{"trajectories: radius -1", false, trajectory(func(q *soi.TrajectoryQuery) { q.Radius = -1 }), soi.ErrBadRequest,
			http.MethodPost, trajPath, `{` + traceBody + `,"keywords":["shop"],"k":5,"radius":-1}`, true},
		{"trajectories: no keywords", false, trajectory(func(q *soi.TrajectoryQuery) { q.Keywords = nil }), soi.ErrBadRequest,
			http.MethodPost, trajPath, `{` + traceBody + `,"k":5,"radius":0.0003}`, true},
		{"trajectories: no traces", false, trajectory(func(q *soi.TrajectoryQuery) { q.Traces = nil }), soi.ErrNoTraces,
			http.MethodPost, trajPath, `{"keywords":["shop"],"k":5,"radius":0.0003}`, true},
		{"trajectories: ε NaN", false, trajectory(func(q *soi.TrajectoryQuery) { q.Epsilon = nan }), soi.ErrBadEpsilon,
			http.MethodPost, trajPath, `{` + traceBody + `,"keywords":["shop"],"k":5,"eps":-1}`, false},
		{"describe: λ NaN", false, func(e *soi.Engine) error {
			_, err := e.DescribeStreet("High St", soi.SummaryParams{K: 4, Lambda: nan})
			return err
		}, soi.ErrBadSummaryParams, http.MethodGet, "/api/describe?street=High+St&lambda=NaN", "", true},
		{"tour: budget 0", false, tour(soi.Query{Keywords: shop, K: 10, Epsilon: soi.DefaultCellSize}, 0), soi.ErrBadTourBudget,
			http.MethodGet, "/api/tour?keywords=shop", "", true},
		{"tour: no keywords", false, tour(soi.Query{K: 10, Epsilon: soi.DefaultCellSize}, 1), soi.ErrBadRequest,
			http.MethodGet, "/api/tour?budget=1", "", true},
		{"pois: no keywords", true, addPOI(soi.POIInput{X: 0.001}), soi.ErrBadRequest,
			http.MethodPost, "/api/pois", `{"pois":[{"x":0.001,"y":0}]}`, true},
		{"pois: weight -1", true, addPOI(soi.POIInput{X: 0.001, Keywords: shop, Weight: -1}), soi.ErrBadWeight,
			http.MethodPost, "/api/pois", `{"pois":[{"x":0.001,"y":0,"keywords":["shop"],"weight":-1}]}`, true},
	}
	static, live := testServer(t), testLiveServer(t, soi.LiveConfig{})
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := static
			if c.live {
				s = live
			}
			before := admissions(s.engine)
			goErr := c.goDo(s.engine)
			if !errors.Is(goErr, soi.ErrBadRequest) || !errors.Is(goErr, c.want) {
				t.Fatalf("Go: err = %v, want one matching ErrBadRequest and %v", goErr, c.want)
			}
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, httptest.NewRequest(c.method, c.path, strings.NewReader(c.body)))
			var body struct{ Error string }
			if err := json.Unmarshal(rec.Body.Bytes(), &body); rec.Code != http.StatusBadRequest || err != nil {
				t.Fatalf("HTTP: status %d body %s, want a 400 with a JSON error", rec.Code, rec.Body)
			}
			if c.sameText && body.Error != goErr.Error() {
				t.Errorf("HTTP refused with %q, Go with %q", body.Error, goErr.Error())
			}
			if after := admissions(s.engine); after != before {
				t.Errorf("a refusal was admitted: counters %+v → %+v", before, after)
			}
		})
	}
}
