package server

// Tests for the POST /api/pois write endpoint against a live engine:
// appends land in the delta log, an optional publish folds them into a
// fresh epoch visible to subsequent queries, and a read-only deployment
// answers 501.

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"testing"

	soi "repro"
	"repro/internal/datagen"
)

func testLiveServer(t *testing.T, cfg soi.LiveConfig) *Server {
	t.Helper()
	streets := []soi.StreetInput{
		{Name: "High St", Polyline: []soi.Point{{X: 0, Y: 0}, {X: 0.002, Y: 0}}},
		{Name: "Side St", Polyline: []soi.Point{{X: 0, Y: 0.005}, {X: 0.002, Y: 0.005}}},
	}
	var pois []soi.POIInput
	for i := 0; i < 6; i++ {
		pois = append(pois, soi.POIInput{X: 0.0003 * float64(i), Y: 0.0001, Keywords: []string{"shop"}})
	}
	photos := []soi.PhotoInput{
		{X: 0.0005, Y: 0.0001, Tags: []string{"high", "shopfront"}},
	}
	eng, err := soi.NewLiveEngine(streets, pois, photos, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	return New(eng)
}

func TestPOIsAppendAndPublish(t *testing.T) {
	s := testLiveServer(t, soi.LiveConfig{})

	// Batch append without publish: deltas stay pending, epoch unchanged.
	rec, body := post(t, s, "/api/pois", `{"pois":[
		{"x":0.0004,"y":0.0051,"keywords":["museum"]},
		{"x":0.0008,"y":0.0049,"keywords":["museum"]}]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %v", rec.Code, body)
	}
	if body["added"].(float64) != 2 || body["pending"].(float64) != 2 ||
		body["epoch"].(float64) != 1 || body["published"].(bool) {
		t.Fatalf("append response = %v", body)
	}
	if rec, body := get(t, s, "/api/streets?keywords=museum"); rec.Code != http.StatusOK ||
		len(body["streets"].([]interface{})) != 0 {
		t.Fatalf("unpublished deltas visible: %v", body)
	}

	// Single inline POI with publish: everything pending folds.
	rec, body = post(t, s, "/api/pois", `{"x":0.0012,"y":0.005,"keywords":["museum"],"publish":true}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %v", rec.Code, body)
	}
	if body["added"].(float64) != 1 || body["pending"].(float64) != 0 ||
		body["epoch"].(float64) != 2 || !body["published"].(bool) {
		t.Fatalf("publish response = %v", body)
	}
	rec, qbody := get(t, s, "/api/streets?keywords=museum")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %v", rec.Code, qbody)
	}
	streets := qbody["streets"].([]interface{})
	if len(streets) != 1 || streets[0].(map[string]interface{})["Name"] != "Side St" {
		t.Fatalf("published POIs not served: %v", streets)
	}
}

// TestStreetsBodyFollowsTheEpoch: on a live server the stored body belongs
// to its epoch's cache entry — after a publish the same URL is evaluated
// against the new epoch and sends the new answer, then stores that.
func TestStreetsBodyFollowsTheEpoch(t *testing.T) {
	s := testLiveServer(t, soi.LiveConfig{})
	const url = "/api/streets?keywords=museum&k=3&eps=0.0005"
	for i := 0; i < 3; i++ {
		if got := rawGet(t, s, url).Body.String(); got != "{\"streets\":[]}\n" {
			t.Fatalf("epoch 1, request %d: %q, want no streets", i, got)
		}
	}
	if rec, body := post(t, s, "/api/pois", `{"x":0.0012,"y":0.005,"keywords":["museum"],"publish":true}`); rec.Code != http.StatusOK {
		t.Fatalf("publish: status %d: %v", rec.Code, body)
	}
	var first string
	for i := 0; i < 3; i++ {
		got := rawGet(t, s, url).Body.String()
		if !strings.Contains(got, `"Name":"Side St"`) {
			t.Fatalf("epoch 2, request %d: %q does not show the published POI's street", i, got)
		}
		if i == 0 {
			first = got
		} else if got != first {
			t.Fatalf("epoch 2, request %d: %q, the miss sent %q", i, got, first)
		}
	}
	if e := s.engine.StatsSnapshot().Engine; e.ResultBodyReuse != 2 || e.ResultCacheMisses != 2 {
		t.Errorf("two epochs × (miss, hit, hit): %d body reuses, %d misses, want 2 and 2", e.ResultBodyReuse, e.ResultCacheMisses)
	}
}

func TestPOIsValidation(t *testing.T) {
	s := testLiveServer(t, soi.LiveConfig{})
	cases := []struct {
		name, body string
		status     int
	}{
		{"empty", `{}`, http.StatusBadRequest},
		{"empty batch", `{"pois":[]}`, http.StatusBadRequest},
		{"bad json", `{"pois":`, http.StatusBadRequest},
		{"missing keywords", `{"pois":[{"x":1,"y":1}]}`, http.StatusBadRequest},
		{"beyond the cell lattice", `{"x":1e9,"y":1e9,"keywords":["shop"]}`, http.StatusBadRequest},
		{"out of bounds", `{"x":9,"y":9,"keywords":["shop"]}`, http.StatusOK},
	}
	for _, c := range cases {
		rec, body := post(t, s, "/api/pois", c.body)
		if rec.Code != c.status {
			t.Errorf("%s: status = %d, want %d (%v)", c.name, rec.Code, c.status, body)
		}
	}

	// Method and size guards.
	rec, _ := get(t, s, "/api/pois")
	if rec.Code != http.StatusMethodNotAllowed || rec.Header().Get("Allow") != http.MethodPost {
		t.Fatalf("GET /api/pois: status %d Allow %q", rec.Code, rec.Header().Get("Allow"))
	}
	big := `{"pois":[` + strings.Repeat(`{"x":0,"y":0,"keywords":["shop"]},`, 40) + `{"x":0,"y":0,"keywords":["shop"]}]}`
	small := NewWithConfig(s.engine, Config{MaxBatchBytes: 64})
	if rec, _ := post(t, small, "/api/pois", big); rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413", rec.Code)
	}
}

func TestPOIsOnStaticEngineIs501(t *testing.T) {
	s := testServer(t)
	rec, body := post(t, s, "/api/pois", `{"x":0,"y":0,"keywords":["shop"]}`)
	if rec.Code != http.StatusNotImplemented {
		t.Fatalf("static engine write: status %d body %v, want 501", rec.Code, body)
	}
}

// TestFarPOIIsRefusedOverHTTP is the HTTP face of the far-coordinate
// regression (internal/ingest TestFarPOIIsRefused has the mechanism):
// POSTing a POI at (1e9, 1e9) used to answer 200 and drop Side St from the
// k=2 answer of every later epoch, and one at (1e300, 1e300) emptied it.
// The write is now a 400 that appends nothing, and the serving epoch keeps
// answering.
func TestFarPOIIsRefusedOverHTTP(t *testing.T) {
	s := testLiveServer(t, soi.LiveConfig{})
	if rec, body := post(t, s, "/api/pois", `{"x":0.0004,"y":0.0051,"keywords":["shop"],"publish":true}`); rec.Code != http.StatusOK {
		t.Fatalf("seeding Side St: status %d: %v", rec.Code, body)
	}
	const query = "/api/streets?keywords=shop&k=2&eps=0.0005"
	_, before := get(t, s, query)
	if streets, _ := before["streets"].([]interface{}); len(streets) != 2 {
		t.Fatalf("k=2 answer holds %d streets before the write, want both: %v", len(streets), before)
	}
	for _, body := range []string{
		`{"x":1e9,"y":1e9,"keywords":["shop"],"publish":true}`,
		`{"x":1e300,"y":1e300,"keywords":["shop"],"publish":true}`,
		`{"pois":[{"x":0.001,"y":0.005,"keywords":["shop"]},{"x":-1e12,"y":0,"keywords":["shop"]}],"publish":true}`,
	} {
		rec, resp := post(t, s, "/api/pois", body)
		if rec.Code != http.StatusBadRequest || !strings.Contains(resp["error"].(string), "cell lattice") {
			t.Fatalf("POST %s: status %d body %v, want 400 naming the cell lattice", body, rec.Code, resp)
		}
		_, after := get(t, s, query)
		if !reflect.DeepEqual(after["streets"], before["streets"]) {
			t.Fatalf("after the refused POST %s the answer changed:\n got %v\nwant %v", body, after["streets"], before["streets"])
		}
	}
	_, stats := get(t, s, "/api/stats")
	ing := stats["stats"].(map[string]interface{})["ingest"].(map[string]interface{})
	if ing["deltas_appended"].(float64) != 1 || ing["deltas_pending"].(float64) != 0 || ing["epoch_seq"].(float64) != 2 {
		t.Fatalf("ingest stats after the refusals = %v, want only the seeding write", ing)
	}
	// The log is clean: the next ordinary write publishes.
	if rec, body := post(t, s, "/api/pois", `{"x":0.0008,"y":0.0049,"keywords":["shop"],"publish":true}`); rec.Code != http.StatusOK || body["epoch"].(float64) != 3 {
		t.Fatalf("ordinary write after the refusals: status %d: %v", rec.Code, body)
	}
}

// TestLiveServingKeepsMapLayoutUnbuilt drives every query endpoint of
// soiserve -live across four epochs (appends, three publishes, a
// compaction): each answers 200 from the epoch /api/stats names, and the
// publish time split is exported next to publish_ns. (The name dates from
// the lazy-map-layout build counter the test also read; there is no map
// layout left to build, so the counter and that assertion are gone.)
func TestLiveServingKeepsMapLayoutUnbuilt(t *testing.T) {
	ds, err := datagen.Generate(datagen.Small(1))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := soi.NewLiveEngineFromCorpora(ds.Network, ds.POIs, ds.Photos, soi.LiveConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := eng.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	s := New(eng)
	_, body := get(t, s, "/api/streets?keywords=shop&k=1&eps=0.0005")
	streets, _ := body["streets"].([]interface{})
	if len(streets) == 0 {
		t.Fatalf("no street for the probe query: %v", body)
	}
	top := streets[0].(map[string]interface{})["Name"].(string)
	requests := []struct{ method, path, body string }{
		{http.MethodGet, "/api/streets?keywords=shop,food&k=5&eps=0.0005&trace=1", ""},
		{http.MethodGet, "/api/streets?keywords=zeppelin&k=3&eps=0.0012&trace=1", ""},
		{http.MethodPost, "/api/streets/batch?trace=1", `{"queries":[{"keywords":["shop"],"k":2,"eps":0.0005},{"keywords":["shop"],"k":7,"eps":0.0005},{"keywords":["food","zeppelin"],"k":3,"eps":0.0002}]}`},
		{http.MethodGet, "/api/describe?street=" + url.QueryEscape(top), ""},
		{http.MethodGet, "/api/tour?keywords=shop&k=5&eps=0.0005&budget=0.05", ""},
		{http.MethodPost, "/api/routes/topk", `{"src":[0.0,0.0036],"dst":[0.02,0.0036],"keywords":["shop"],"k":3,"budget":0.024,"alpha":0.1}`},
		{http.MethodPost, "/api/trajectories/soi", `{"traces":[[[0.044,0.0372],[0.048,0.0372],[0.052,0.0372]]],"keywords":["shop"],"k":5,"radius":0.001}`},
	}
	serve := func(epoch float64) {
		t.Helper()
		for _, rq := range requests {
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, httptest.NewRequest(rq.method, rq.path, strings.NewReader(rq.body)))
			if rec.Code != http.StatusOK {
				t.Fatalf("epoch %v: %s %s: status %d: %s", epoch, rq.method, rq.path, rec.Code, rec.Body)
			}
		}
		_, stats := get(t, s, "/api/stats")
		if got := stats["stats"].(map[string]interface{})["ingest"].(map[string]interface{})["epoch_seq"].(float64); got != epoch {
			t.Fatalf("serving epoch %v, want %v", got, epoch)
		}
	}
	serve(1)
	if rec, body := post(t, s, "/api/pois", `{"x":0.02,"y":0.0037,"keywords":["zeppelin"]}`); rec.Code != http.StatusOK {
		t.Fatalf("append: status %d: %v", rec.Code, body)
	}
	for i := 0; i < 3; i++ {
		body := fmt.Sprintf(`{"pois":[{"x":%g,"y":0.0036,"keywords":["zeppelin","shop"]}],"publish":true}`, 0.021+0.001*float64(i))
		if rec, resp := post(t, s, "/api/pois", body); rec.Code != http.StatusOK || !resp["published"].(bool) {
			t.Fatalf("publish %d: status %d: %v", i, rec.Code, resp)
		}
		serve(float64(2 + i))
	}
	if _, _, err := eng.Compact(); err != nil {
		t.Fatal(err)
	}
	serve(5)

	_, stats := get(t, s, "/api/stats")
	ing := stats["stats"].(map[string]interface{})["ingest"].(map[string]interface{})
	var split float64
	for _, key := range []string{"publish_extend_ns", "publish_slab_ns", "publish_open_ns"} {
		v, ok := ing[key].(float64)
		if !ok || v <= 0 {
			t.Fatalf("/api/stats ingest.%s = %v after three publishes, want > 0", key, ing[key])
		}
		split += v
	}
	if total := ing["publish_ns"].(float64); split > total {
		t.Fatalf("publish split sums to %v ns, more than publish_ns %v", split, total)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	for _, want := range []string{"soi_ingest_publish_extend_ns_total ", "soi_ingest_publish_slab_ns_total ", "soi_ingest_publish_open_ns_total "} {
		if !strings.Contains(rec.Body.String(), want) {
			t.Errorf("/metrics lacks %q", want)
		}
	}
}
