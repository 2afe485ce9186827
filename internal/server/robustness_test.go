package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	soi "repro"
	"repro/internal/engine"
	"repro/internal/faults"
)

// testServerConfigured is testServer with explicit engine and server
// configuration, for exercising admission control and body limits.
func testServerConfigured(t *testing.T, ecfg soi.Config, scfg Config) *Server {
	t.Helper()
	streets := []soi.StreetInput{
		{Name: "High St", Polyline: []soi.Point{{X: 0, Y: 0}, {X: 0.002, Y: 0}}},
		{Name: "Side St", Polyline: []soi.Point{{X: 0.002, Y: 0}, {X: 0.002, Y: 0.002}}},
	}
	var pois []soi.POIInput
	for i := 0; i < 6; i++ {
		pois = append(pois, soi.POIInput{X: 0.0003 * float64(i), Y: 0.0001, Keywords: []string{"shop", "food"}})
	}
	eng, err := soi.NewEngine(streets, pois, nil, ecfg)
	if err != nil {
		t.Fatal(err)
	}
	return NewWithConfig(eng, scfg)
}

func TestBatchRejectsNonPOST(t *testing.T) {
	s := testServer(t)
	rec, body := get(t, s, "/api/streets/batch")
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("status = %d, want 405", rec.Code)
	}
	if allow := rec.Header().Get("Allow"); allow != http.MethodPost {
		t.Fatalf("Allow = %q, want %q", allow, http.MethodPost)
	}
	if body["error"] == nil {
		t.Fatalf("missing JSON error body: %v", body)
	}
}

func TestBatchBodyLimit(t *testing.T) {
	s := testServerConfigured(t, soi.Config{}, Config{MaxBatchBytes: 128})
	// A syntactically valid request that exceeds the 128-byte cap.
	big := `{"queries":[{"keywords":["` + strings.Repeat(`shop","`, 40) + `shop"],"k":3}]}`
	req := httptest.NewRequest(http.MethodPost, "/api/streets/batch", strings.NewReader(big))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413\n%s", rec.Code, rec.Body.String())
	}
	var body map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("413 body is not JSON: %v\n%s", err, rec.Body.String())
	}
	msg, _ := body["error"].(string)
	if !strings.Contains(msg, "128-byte limit") {
		t.Fatalf("error = %q, want the byte limit named", msg)
	}
}

func TestBatchBodyLimitDisabled(t *testing.T) {
	s := testServerConfigured(t, soi.Config{}, Config{MaxBatchBytes: -1})
	big := `{"queries":[{"keywords":["shop"],"k":3,"pad":"` + strings.Repeat("x", 2<<20) + `"}]}`
	req := httptest.NewRequest(http.MethodPost, "/api/streets/batch", strings.NewReader(big))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200 with the limit disabled\n%s", rec.Code, rec.Body.String())
	}
}

// TestShedMapsTo503: with one worker wedged at the evaluate fault site
// and a tiny queue wait, a second concurrent query is shed by admission
// control and the server reports 503 with a Retry-After hint.
func TestShedMapsTo503(t *testing.T) {
	block := make(chan struct{})
	faults.Activate(engine.SiteEvaluate, faults.Fault{Block: block})
	defer faults.Deactivate(engine.SiteEvaluate)

	s := testServerConfigured(t,
		soi.Config{Workers: 1, CacheSize: -1, MaxQueueWait: 20 * time.Millisecond}, Config{})

	wedged := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/streets?keywords=shop&k=2", nil))
		wedged <- rec
	}()
	deadline := time.Now().Add(2 * time.Second)
	for faults.Visits(engine.SiteEvaluate) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never reached the evaluate site")
		}
		time.Sleep(time.Millisecond)
	}

	// A distinct query (different keywords) cannot dedup-join the wedged
	// one; it waits past MaxQueueWait and is shed.
	rec, body := get(t, s, "/api/streets?keywords=food&k=2")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503: %v", rec.Code, body)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("503 without a Retry-After hint")
	}

	close(block)
	select {
	case w := <-wedged:
		if w.Code != http.StatusOK {
			t.Fatalf("wedged query finished with %d after unwedge\n%s", w.Code, w.Body.String())
		}
	case <-time.After(2 * time.Second):
		t.Fatal("wedged query never completed")
	}

	// The shed is visible on both observability surfaces.
	mrec := httptest.NewRecorder()
	s.ServeHTTP(mrec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if !strings.Contains(mrec.Body.String(), "soi_shed_total 1") {
		t.Fatalf("/metrics missing soi_shed_total 1:\n%s", mrec.Body.String())
	}
	_, stats := get(t, s, "/api/stats")
	eng := stats["stats"].(map[string]any)["engine"].(map[string]any)
	if got := eng["shed"].(float64); got != 1 {
		t.Fatalf("/api/stats engine.shed = %v, want 1", got)
	}
}

// TestPanicMapsTo500AndCounters: an injected evaluation panic surfaces
// as 500 (not a client error), bumps soi_panics_recovered_total on
// /metrics and /api/stats, and the server keeps answering.
func TestPanicMapsTo500AndCounters(t *testing.T) {
	faults.Activate(engine.SiteEvaluate, faults.Fault{Panic: true, Times: 1})
	defer faults.Deactivate(engine.SiteEvaluate)

	s := testServerConfigured(t, soi.Config{}, Config{})
	rec, body := get(t, s, "/api/streets?keywords=shop&k=2")
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500: %v", rec.Code, body)
	}
	if msg, _ := body["error"].(string); !strings.Contains(msg, "panicked") {
		t.Fatalf("error = %q, want the recovered panic described", msg)
	}

	// The process keeps serving: the same query succeeds on retry.
	rec2, body2 := get(t, s, "/api/streets?keywords=shop&k=2")
	if rec2.Code != http.StatusOK {
		t.Fatalf("retry status = %d, want 200: %v", rec2.Code, body2)
	}

	mrec := httptest.NewRecorder()
	s.ServeHTTP(mrec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if !strings.Contains(mrec.Body.String(), "soi_panics_recovered_total 1") {
		t.Fatalf("/metrics missing soi_panics_recovered_total 1:\n%s", mrec.Body.String())
	}
	_, stats := get(t, s, "/api/stats")
	eng := stats["stats"].(map[string]any)["engine"].(map[string]any)
	if got := eng["panics_recovered"].(float64); got != 1 {
		t.Fatalf("/api/stats engine.panics_recovered = %v, want 1", got)
	}
}

// TestRobustnessCountersExposed: all four robustness counters are
// present on both surfaces even at zero, so dashboards can rely on them.
func TestRobustnessCountersExposed(t *testing.T) {
	s := testServer(t)
	mrec := httptest.NewRecorder()
	s.ServeHTTP(mrec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	text := mrec.Body.String()
	for _, name := range []string{"soi_shed_total", "soi_cancelled_total", "soi_deadline_exceeded_total", "soi_panics_recovered_total"} {
		if !strings.Contains(text, name) {
			t.Errorf("/metrics missing %s", name)
		}
	}
	_, stats := get(t, s, "/api/stats")
	eng := stats["stats"].(map[string]any)["engine"].(map[string]any)
	for _, key := range []string{"shed", "cancelled", "deadline_exceeded", "panics_recovered"} {
		if _, ok := eng[key]; !ok {
			t.Errorf("/api/stats engine snapshot missing %q", key)
		}
	}
}
