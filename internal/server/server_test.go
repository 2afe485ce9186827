package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	soi "repro"
)

func testServer(t *testing.T) *Server {
	t.Helper()
	return testServerWith(t, soi.Config{})
}

// testServerWith is testServer's world, photos included, served by an
// engine built with cfg.
func testServerWith(t testing.TB, cfg soi.Config) *Server {
	t.Helper()
	streets := []soi.StreetInput{
		{Name: "High St", Polyline: []soi.Point{{X: 0, Y: 0}, {X: 0.002, Y: 0}}},
		{Name: "Side St", Polyline: []soi.Point{{X: 0.002, Y: 0}, {X: 0.002, Y: 0.002}}},
	}
	var pois []soi.POIInput
	for i := 0; i < 6; i++ {
		pois = append(pois, soi.POIInput{X: 0.0003 * float64(i), Y: 0.0001, Keywords: []string{"shop"}})
	}
	pois = append(pois, soi.POIInput{X: 0.0021, Y: 0.001, Keywords: []string{"shop"}})
	photos := []soi.PhotoInput{
		{X: 0.0005, Y: 0.0001, Tags: []string{"high", "shopfront"}},
		{X: 0.0010, Y: -0.0001, Tags: []string{"high", "crowd"}},
		{X: 0.0015, Y: 0.0001, Tags: []string{"construction"}},
	}
	eng, err := soi.NewEngine(streets, pois, photos, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return New(eng)
}

func get(t *testing.T, s *Server, url string) (*httptest.ResponseRecorder, map[string]interface{}) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, url, nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	var body map[string]interface{}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("invalid JSON from %s: %v\n%s", url, err, rec.Body.String())
	}
	return rec, body
}

func TestStats(t *testing.T) {
	s := testServer(t)
	rec, body := get(t, s, "/api/stats")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if body["streets"].(float64) != 2 || body["pois"].(float64) != 7 || body["photos"].(float64) != 3 {
		t.Fatalf("body = %v", body)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type = %q", ct)
	}
}

func TestStreets(t *testing.T) {
	s := testServer(t)
	rec, body := get(t, s, "/api/streets?keywords=shop&k=5")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %v", rec.Code, body)
	}
	streets := body["streets"].([]interface{})
	if len(streets) != 2 {
		t.Fatalf("streets = %v", streets)
	}
	first := streets[0].(map[string]interface{})
	if first["Name"] != "High St" {
		t.Fatalf("top street = %v", first)
	}
}

func TestStreetsValidation(t *testing.T) {
	s := testServer(t)
	cases := []string{
		"/api/streets",                     // no keywords
		"/api/streets?keywords=shop&k=abc", // bad k
		"/api/streets?keywords=shop&eps=x", // bad eps
		"/api/streets?keywords=shop&k=0",   // invalid k
		// strconv.ParseFloat accepts these; the query must not.
		"/api/streets?keywords=shop&eps=NaN",
		"/api/streets?keywords=shop&eps=Inf",
		"/api/streets?keywords=shop&eps=-Inf",
	}
	for _, url := range cases {
		rec, body := get(t, s, url)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status = %d (%v)", url, rec.Code, body)
		}
		if body["error"] == "" {
			t.Errorf("%s: missing error message", url)
		}
	}
}

func TestStreetsEmptyResult(t *testing.T) {
	s := testServer(t)
	rec, body := get(t, s, "/api/streets?keywords=unicorns")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if streets := body["streets"].([]interface{}); len(streets) != 0 {
		t.Fatalf("streets = %v, want empty list (not null)", streets)
	}
}

func TestDescribe(t *testing.T) {
	s := testServer(t)
	rec, body := get(t, s, "/api/describe?street=High+St&k=2")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %v", rec.Code, body)
	}
	if body["Street"] != "High St" {
		t.Fatalf("body = %v", body)
	}
	photos := body["Photos"].([]interface{})
	if len(photos) != 2 {
		t.Fatalf("photos = %v", photos)
	}
}

func TestDescribeErrors(t *testing.T) {
	s := testServer(t)
	if rec, _ := get(t, s, "/api/describe"); rec.Code != http.StatusBadRequest {
		t.Errorf("missing street: status = %d", rec.Code)
	}
	if rec, _ := get(t, s, "/api/describe?street=Ghost+Road&k=2"); rec.Code != http.StatusNotFound {
		t.Errorf("unknown street: status = %d", rec.Code)
	}
	if rec, _ := get(t, s, "/api/describe?street=High+St&k=zzz"); rec.Code != http.StatusBadRequest {
		t.Errorf("bad k: status = %d", rec.Code)
	}
	if rec, _ := get(t, s, "/api/describe?street=High+St&lambda=nope"); rec.Code != http.StatusBadRequest {
		t.Errorf("bad lambda: status = %d", rec.Code)
	}
	// Side St has no photos within a tiny eps.
	if rec, _ := get(t, s, "/api/describe?street=Side+St&eps=0.00001"); rec.Code != http.StatusNotFound {
		t.Errorf("no photos: status = %d", rec.Code)
	}
}

func TestTour(t *testing.T) {
	s := testServer(t)
	rec, body := get(t, s, "/api/tour?keywords=shop&k=5&budget=1")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %v", rec.Code, body)
	}
	stops := body["Stops"].([]interface{})
	if len(stops) < 1 {
		t.Fatalf("stops = %v", stops)
	}
	first := stops[0].(map[string]interface{})
	if first["Street"] != "High St" {
		t.Fatalf("tour start = %v", first)
	}
}

func TestTourErrors(t *testing.T) {
	s := testServer(t)
	if rec, _ := get(t, s, "/api/tour?keywords=shop"); rec.Code != http.StatusBadRequest {
		t.Errorf("zero budget: status = %d", rec.Code)
	}
	if rec, _ := get(t, s, "/api/tour?budget=1"); rec.Code != http.StatusBadRequest {
		t.Errorf("no keywords: status = %d", rec.Code)
	}
	if rec, _ := get(t, s, "/api/tour?keywords=unicorns&budget=1"); rec.Code != http.StatusNotFound {
		t.Errorf("no matches: status = %d", rec.Code)
	}
	for _, eps := range []string{"NaN", "Inf", "-Inf"} {
		if rec, _ := get(t, s, "/api/tour?keywords=shop&budget=1&eps="+eps); rec.Code != http.StatusBadRequest {
			t.Errorf("eps=%s: status = %d", eps, rec.Code)
		}
	}
	for _, budget := range []string{"NaN", "Inf", "-Inf", "0"} {
		rec, body := get(t, s, "/api/tour?keywords=shop&budget="+budget)
		if msg, _ := body["error"].(string); rec.Code != http.StatusBadRequest || !strings.Contains(msg, "budget") {
			t.Errorf("budget=%s: status = %d, body %v", budget, rec.Code, body)
		}
	}
}

// TestMethodNotAllowed: a GET route of the server and of the coordinator
// refuses POST with 405 and, as RFC 9110 requires, an Allow header.
func TestMethodNotAllowed(t *testing.T) {
	s := testServer(t)
	coord, _ := newTestRemoteServer(t, nil)
	for _, c := range []struct {
		s   http.Handler
		url string
	}{
		{s, "/api/stats"}, {s, "/api/streets"}, {s, "/api/describe"}, {s, "/api/tour"},
		{coord, "/api/streets"}, {coord, "/api/stats"},
	} {
		req := httptest.NewRequest(http.MethodPost, c.url, strings.NewReader("{}"))
		rec := httptest.NewRecorder()
		c.s.ServeHTTP(rec, req)
		if rec.Code != http.StatusMethodNotAllowed {
			t.Errorf("POST %s: status = %d", c.url, rec.Code)
		}
		if allow := rec.Header().Get("Allow"); allow != http.MethodGet {
			t.Errorf("POST %s: Allow = %q, want GET", c.url, allow)
		}
	}
}

func TestUnknownPath(t *testing.T) {
	s := testServer(t)
	req := httptest.NewRequest(http.MethodGet, "/nope", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusNotFound {
		t.Errorf("status = %d", rec.Code)
	}
}
