package server

import (
	"net/http"
	"strings"
	"testing"

	soi "repro"
	"repro/internal/geo"
	"repro/internal/network"
	"repro/internal/photo"
	"repro/internal/poi"
)

// TestHugeWeightIsRefusedOverHTTP: two shop POIs of weight 1e308 used to
// be written with a 200. Their mass is +Inf, and from the next epoch on
// every shop answer — /api/streets, traced or not, and /api/tour — was a
// 200 with an empty body: the infinite interest does not encode, and the
// header had already gone out. A weight that is negative, not finite or
// above the ceiling is now a 400 that appends nothing, and the served
// answers stay whole.
func TestHugeWeightIsRefusedOverHTTP(t *testing.T) {
	s := testLiveServer(t, soi.LiveConfig{})
	for _, body := range []string{
		`{"pois":[{"x":0.0004,"y":0.0051,"keywords":["shop"],"weight":1e308},{"x":0.0006,"y":0.0051,"keywords":["shop"],"weight":1e308}],"publish":true}`,
		`{"x":0.0004,"y":0.0051,"keywords":["shop"],"weight":-1,"publish":true}`,
		`{"x":0.0004,"y":0.0051,"keywords":["shop"],"weight":1000000001,"publish":true}`,
	} {
		rec, resp := post(t, s, "/api/pois", body)
		if msg, _ := resp["error"].(string); rec.Code != http.StatusBadRequest || !strings.Contains(msg, "weight") {
			t.Fatalf("POST %s: status %d body %v, want 400 naming the weight", body, rec.Code, resp)
		}
	}
	_, stats := get(t, s, "/api/stats")
	ing := stats["stats"].(map[string]interface{})["ingest"].(map[string]interface{})
	if ing["deltas_appended"].(float64) != 0 || ing["epoch_seq"].(float64) != 1 {
		t.Fatalf("ingest stats after the refusals = %v, want nothing appended", ing)
	}
	// A weight at the ceiling is a weight like any other.
	if rec, body := post(t, s, "/api/pois", `{"pois":[{"x":0.0004,"y":0.0051,"keywords":["shop"],"weight":1e9},{"x":0.0006,"y":0.0051,"keywords":["shop"],"weight":1e9}],"publish":true}`); rec.Code != http.StatusOK {
		t.Fatalf("POIs at the weight ceiling: status %d: %v", rec.Code, body)
	}
	for _, url := range []string{
		"/api/streets?keywords=shop&k=2&eps=0.0005",
		"/api/streets?keywords=shop&k=2&eps=0.0005&trace=1",
		"/api/tour?keywords=shop&k=2&eps=0.0005&budget=0.05",
	} {
		for i := 0; i < 2; i++ { // a miss, then a result-cache hit
			rec, body := get(t, s, url)
			if rec.Code != http.StatusOK {
				t.Fatalf("GET %s: status %d: %v", url, rec.Code, body)
			}
		}
	}
	_, body := get(t, s, "/api/streets?keywords=shop&k=1&eps=0.0005")
	if top := body["streets"].([]interface{})[0].(map[string]interface{}); top["Name"] != "Side St" || top["Mass"].(float64) != 2e9 {
		t.Fatalf("top street %v, want Side St with mass 2e9", top)
	}
}

// TestUnencodableAnswerIs500: an answer that cannot be encoded — here an
// infinite interest from a corpus built past every weight check — is a
// 500 with the uniform error body, on a miss and on a result-cache hit,
// never a 200 with an empty body.
func TestUnencodableAnswerIs500(t *testing.T) {
	nb := network.NewBuilder()
	nb.AddStreet("High St", []geo.Point{geo.Pt(0, 0), geo.Pt(0.002, 0)})
	net, err := nb.Build()
	if err != nil {
		t.Fatal(err)
	}
	pb := poi.NewBuilder(nil)
	pb.AddWeighted(geo.Pt(0.0005, 0.0001), []string{"shop"}, 1e308)
	pb.AddWeighted(geo.Pt(0.0006, 0.0001), []string{"shop"}, 1e308)
	pois := pb.Build()
	eng, err := soi.NewEngineFromCorpora(net, pois, photo.NewBuilder(pois.Dict()).Build(), soi.Config{})
	if err != nil {
		t.Fatal(err)
	}
	s := New(eng)
	for _, url := range []string{
		"/api/streets?keywords=shop&k=1&eps=0.0005",
		"/api/streets?keywords=shop&k=1&eps=0.0005",
		"/api/streets?keywords=shop&k=1&eps=0.0005&trace=1",
	} {
		rec, body := get(t, s, url)
		if msg, _ := body["error"].(string); rec.Code != http.StatusInternalServerError || msg == "" {
			t.Fatalf("GET %s: status %d body %v, want 500 with an error body", url, rec.Code, body)
		}
	}
}
