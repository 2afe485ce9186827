package server

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"strings"
	"testing"

	soi "repro"
	"repro/internal/datagen"
)

// mapLayoutBuilds reads core.map_layout_builds from a stats body; the
// key must be present.
func mapLayoutBuilds(t *testing.T, body map[string]interface{}) float64 {
	t.Helper()
	core := body["stats"].(map[string]interface{})["core"].(map[string]interface{})
	v, ok := core["map_layout_builds"]
	if !ok {
		t.Fatalf("/api/stats has no core.map_layout_builds: %v", core)
	}
	return v.(float64)
}

// TestSnapshotServingKeepsMapLayoutUnbuilt drives every query endpoint of
// a snapshot-opened engine — /api/streets single and batched with
// trace=1, /api/describe, /api/tour, /api/routes/topk,
// /api/trajectories/soi — directly and as a tenant, and reads the
// operator's view of the residency contract: core.map_layout_builds in
// /api/stats and soi_core_map_layout_builds_total in /metrics stay 0, so
// the process is serving from the slab alone. (That the counter moves
// when the layout is built, and that opening builds nothing, is pinned
// with in-package probes in internal/core.)
func TestSnapshotServingKeepsMapLayoutUnbuilt(t *testing.T) {
	ds, err := datagen.Generate(datagen.Small(1))
	if err != nil {
		t.Fatal(err)
	}
	built, err := soi.NewEngineFromCorpora(ds.Network, ds.POIs, ds.Photos, soi.Config{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "small.soi")
	if err := built.WriteSnapshot(path); err != nil {
		t.Fatal(err)
	}
	eng, err := soi.NewEngineFromSnapshot(path, soi.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := eng.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	eng.Warm(soi.DefaultCellSize)
	single := New(eng)
	tenants := newTestTenantServer(t, TenantConfig{Dir: dir})

	// The busiest street has photos to describe.
	_, body := get(t, single, "/api/streets?keywords=shop&k=1&eps=0.0005")
	streets, _ := body["streets"].([]interface{})
	if len(streets) == 0 {
		t.Fatalf("no street for the probe query: %v", body)
	}
	top := streets[0].(map[string]interface{})["Name"].(string)

	requests := []struct{ method, path, body string }{
		{http.MethodGet, "/streets?keywords=shop,food&k=5&eps=0.0005&trace=1", ""},
		{http.MethodGet, "/streets?keywords=museum&k=3&eps=0.0012&trace=1", ""},
		{http.MethodPost, "/streets/batch?trace=1", `{"queries":[{"keywords":["shop"],"k":2,"eps":0.0005},{"keywords":["shop"],"k":7,"eps":0.0005},{"keywords":["food","park"],"k":3,"eps":0.0002}]}`},
		{http.MethodGet, "/describe?street=" + url.QueryEscape(top), ""},
		{http.MethodGet, "/tour?keywords=shop&k=5&eps=0.0005&budget=0.05", ""},
		{http.MethodPost, "/routes/topk", `{"src":[0.0,0.0036],"dst":[0.02,0.0036],"keywords":["shop"],"k":3,"budget":0.024,"alpha":0.1}`},
		{http.MethodPost, "/trajectories/soi", `{"traces":[[[0.044,0.0372],[0.048,0.0372],[0.052,0.0372]]],"keywords":["shop"],"k":5,"radius":0.001}`},
	}
	for _, h := range []struct {
		name, prefix, metrics string
		handler               http.Handler
	}{{"single", "/api", "/metrics", single}, {"tenant", "/api/small", "/api/small/metrics", tenants}} {
		do := func(method, path, body string) *httptest.ResponseRecorder {
			rec := httptest.NewRecorder()
			h.handler.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
			return rec
		}
		for _, rq := range requests {
			if rec := do(rq.method, h.prefix+rq.path, rq.body); rec.Code != http.StatusOK {
				t.Fatalf("%s %s %s: status %d: %s", h.name, rq.method, rq.path, rec.Code, rec.Body)
			}
		}
		rec := do(http.MethodGet, h.prefix+"/stats", "")
		var stats map[string]interface{}
		if err := jsonDecodeBody(rec, &stats); err != nil {
			t.Fatalf("%s /stats: %v", h.name, err)
		}
		if n := mapLayoutBuilds(t, stats); n != 0 {
			t.Errorf("%s: core.map_layout_builds = %v after serving every endpoint, want 0", h.name, n)
		}
		if evals := stats["stats"].(map[string]interface{})["core"].(map[string]interface{})["evaluations"].(float64); evals == 0 {
			t.Errorf("%s: no core evaluation recorded; the requests did no work", h.name)
		}
		metrics := do(http.MethodGet, h.metrics, "").Body.String()
		if want := "soi_core_map_layout_builds_total 0\n"; !strings.Contains(metrics, want) {
			t.Errorf("%s: %s lacks %q", h.name, h.metrics, want)
		}
	}
}
