package server

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/httperr"
)

func TestRoutesTopK(t *testing.T) {
	s := testServer(t)
	rec, body := post(t, s, "/api/routes/topk",
		`{"src":[0,0],"dst":[0.002,0.002],"keywords":["shop"],"k":2,"budget":0.02}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %v", rec.Code, body)
	}
	routes := body["routes"].([]interface{})
	if len(routes) == 0 {
		t.Fatalf("no routes: %v", body)
	}
	first := routes[0].(map[string]interface{})
	poly := first["polyline"].([]interface{})
	if len(poly) < 2 {
		t.Fatalf("route polyline = %v", poly)
	}
	streets := first["streets"].([]interface{})
	if len(streets) == 0 || streets[0] != "High St" {
		t.Fatalf("route streets = %v", streets)
	}
	if first["score"].(float64) < 0 {
		t.Fatalf("route score = %v", first["score"])
	}
}

func TestRoutesTopKValidation(t *testing.T) {
	s := testServer(t)
	cases := []string{
		`{`, // malformed JSON
		`{"src":[0,0],"dst":[0.002,0],"budget":0.02}`,                             // no keywords
		`{"src":[0,0],"dst":[0.002,0],"keywords":["shop"]}`,                       // no budget
		`{"src":[0,0],"dst":[0.002,0],"keywords":["shop"],"budget":-1}`,           // negative budget
		`{"src":[0,0],"dst":[0.002,0],"keywords":["shop"],"budget":1,"alpha":-1}`, // negative alpha
		`{"src":[0,0],"dst":[0.002,0],"keywords":["shop"],"budget":1,"k":-2}`,     // negative k
		`{"src":[0,0],"dst":[0.002,0],"keywords":["shop"],"budget":1,"eps":-1}`,   // negative eps
		`{"src":[0,0],"dst":[0.002,0],"keywords":["shop"],"budget":1e999}`,        // out-of-range budget
		`{"src":[1e999,0],"dst":[0.002,0],"keywords":["shop"],"budget":1}`,        // out-of-range coordinate
	}
	for _, c := range cases {
		rec, body := post(t, s, "/api/routes/topk", c)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status = %d (%v)", c, rec.Code, body)
		}
	}
}

func TestRoutesTopKMethodNotAllowed(t *testing.T) {
	s := testServer(t)
	rec, _ := get(t, s, "/api/routes/topk")
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("status = %d", rec.Code)
	}
	if allow := rec.Header().Get("Allow"); allow != http.MethodPost {
		t.Fatalf("Allow = %q", allow)
	}
}

func TestTrajectorySOIEndpoint(t *testing.T) {
	s := testServer(t)
	rec, body := post(t, s, "/api/trajectories/soi",
		`{"traces":[[[0.0002,0.00005],[0.001,-0.00005],[0.0018,0.00005]]],"keywords":["shop"],"k":5,"radius":0.0003}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %v", rec.Code, body)
	}
	streets := body["streets"].([]interface{})
	if len(streets) == 0 {
		t.Fatalf("no corridor streets: %v", body)
	}
	first := streets[0].(map[string]interface{})
	if first["name"] != "High St" {
		t.Fatalf("top corridor = %v", first)
	}
	cov := first["coverage"].(float64)
	if cov <= 0 || cov > 1 {
		t.Fatalf("coverage = %v", cov)
	}
}

func TestTrajectorySOIValidation(t *testing.T) {
	s := testServer(t)
	cases := []string{
		`{`,                     // malformed JSON
		`{"keywords":["shop"]}`, // no traces
		`{"traces":[[[0,0]]]}`,  // no keywords
		`{"traces":[[[0,0]]],"keywords":["shop"],"radius":-1}`,    // negative radius
		`{"traces":[[[0,0]]],"keywords":["shop"],"k":-1}`,         // negative k
		`{"traces":[[[0,0]]],"keywords":["shop"],"eps":-1}`,       // negative eps
		`{"traces":[[[0,0]]],"keywords":["shop"],"radius":1e999}`, // out-of-range radius
	}
	for _, c := range cases {
		rec, body := post(t, s, "/api/trajectories/soi", c)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%.60s: status = %d (%v)", c, rec.Code, body)
		}
	}
}

func TestTrajectorySOITooManyPoints(t *testing.T) {
	// A request under the byte cap but over the point cap trips the
	// dedicated limit. 70k copies of "[0,0]" exceed 65536 points but the
	// body (~420 KB) must fit, so raise the byte cap for this server.
	s := testServer(t)
	s.maxBatchBytes = 8 << 20
	var b strings.Builder
	b.WriteString(`{"traces":[[`)
	for i := 0; i < 70000; i++ {
		if i > 0 {
			b.WriteString(",")
		}
		b.WriteString("[0,0]")
	}
	b.WriteString(`]],"keywords":["shop"]}`)
	rec, body := post(t, s, "/api/trajectories/soi", b.String())
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status = %d (%v)", rec.Code, body)
	}
	if !strings.Contains(body["error"].(string), "trace points") {
		t.Fatalf("error = %v", body["error"])
	}
}

func TestTrajectorySOIBodyTooLarge(t *testing.T) {
	s := testServer(t)
	big := `{"traces":[[` + strings.Repeat("[0,0],", 300000) + `[0,0]]],"keywords":["shop"]}`
	rec, body := post(t, s, "/api/trajectories/soi", big)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d (%v)", rec.Code, body)
	}
}

// trajCounters reads the route-search work counters from /api/stats.
func trajCounters(t *testing.T, s *Server) (settled, folded, expansions float64) {
	t.Helper()
	rec, body := get(t, s, "/api/stats")
	if rec.Code != http.StatusOK {
		t.Fatalf("/api/stats: status = %d", rec.Code)
	}
	section := body["stats"].(map[string]interface{})["traj"].(map[string]interface{})
	for _, key := range []string{"vertices_settled", "segments_folded", "expansions"} {
		if _, ok := section[key]; !ok {
			t.Fatalf("missing traj counter %q", key)
		}
	}
	return section["vertices_settled"].(float64), section["segments_folded"].(float64), section["expansions"].(float64)
}

// TestRouteSearchCountersExposed pins the route search's prologue
// counters on both surfaces: an answered query adds the vertices its two
// budget-bounded Dijkstra runs settled and the segments it folded, a
// refused query adds nothing, and a budget shorter than the network
// settles and folds less than the network holds.
func TestRouteSearchCountersExposed(t *testing.T) {
	s := testServer(t)
	if v, f, e := trajCounters(t, s); v != 0 || f != 0 || e != 0 {
		t.Fatalf("before any query: settled=%v folded=%v expansions=%v, want 0/0/0", v, f, e)
	}
	// The whole network (3 vertices) is within this budget from both ends.
	if rec, body := post(t, s, "/api/routes/topk",
		`{"src":[0,0],"dst":[0.002,0.002],"keywords":["shop"],"k":2,"budget":0.02}`); rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %v", rec.Code, body)
	}
	v, f, e := trajCounters(t, s)
	if v != 6 || f != 2 || e == 0 {
		t.Fatalf("whole-network budget: settled=%v folded=%v expansions=%v, want 6/2/>0", v, f, e)
	}
	// One segment's worth of budget: the destination (the corner) reaches
	// all three vertices, the source only itself and the corner, and only
	// High St can be walked.
	if rec, body := post(t, s, "/api/routes/topk",
		`{"src":[0,0],"dst":[0.002,0],"keywords":["shop"],"k":2,"budget":0.0021}`); rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %v", rec.Code, body)
	}
	v2, f2, _ := trajCounters(t, s)
	if v2-v != 5 || f2-f != 1 {
		t.Fatalf("one-segment budget: settled +%v folded +%v, want +5/+1", v2-v, f2-f)
	}
	if rec, _ := post(t, s, "/api/routes/topk", `{"src":[0,0],"dst":[0.002,0],"keywords":["shop"],"budget":-1}`); rec.Code != http.StatusBadRequest {
		t.Fatalf("invalid query: status = %d", rec.Code)
	}
	if v3, f3, _ := trajCounters(t, s); v3 != v2 || f3 != f2 {
		t.Errorf("a refused query moved the counters: %v/%v → %v/%v", v2, f2, v3, f3)
	}
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	for _, want := range []string{
		"# TYPE soi_traj_vertices_settled_total counter",
		fmt.Sprintf("soi_traj_vertices_settled_total %d\n", int(v2)),
		"# TYPE soi_traj_segments_folded_total counter",
		fmt.Sprintf("soi_traj_segments_folded_total %d\n", int(f2)),
	} {
		if !strings.Contains(rec.Body.String(), want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestRoutePrologueObservesRequestContext: a whole-network budget makes
// the work before the first expansion the expensive part, and it must
// answer to the request's context like the rest — a client that is gone
// gets 499, a deadline that has passed 504, and neither settles a vertex
// or folds a segment.
func TestRoutePrologueObservesRequestContext(t *testing.T) {
	s := testServer(t)
	const body = `{"src":[0,0],"dst":[0.002,0.002],"keywords":["shop"],"k":2,"budget":1000}`
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	expired, stop := context.WithTimeout(context.Background(), time.Millisecond)
	defer stop()
	<-expired.Done()
	for _, c := range []struct {
		name string
		ctx  context.Context
		want int
	}{
		{"client gone", cancelled, httperr.StatusClientClosedRequest},
		{"deadline passed", expired, http.StatusGatewayTimeout},
	} {
		req := httptest.NewRequest(http.MethodPost, "/api/routes/topk", strings.NewReader(body)).WithContext(c.ctx)
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != c.want {
			t.Fatalf("%s: status = %d, want %d\n%s", c.name, rec.Code, c.want, rec.Body.String())
		}
	}
	if v, f, e := trajCounters(t, s); v != 0 || f != 0 || e != 0 {
		t.Fatalf("work under dead contexts: settled=%v folded=%v expansions=%v", v, f, e)
	}
}
