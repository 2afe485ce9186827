package server

// Tests for the encoded /api/streets body a result-cache entry carries: a
// hit must send the bytes a miss sends, which must be the reference
// encoding; everything that is not an untraced single-query hit keeps
// encoding per request; and the bytes go when their cache entry goes.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	soi "repro"
	"repro/internal/datagen"
)

// rawGet returns the response of one GET without parsing it.
func rawGet(t *testing.T, s *Server, url string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", url, rec.Code, rec.Body)
	}
	return rec
}

// referenceBody is the encoding the endpoint has always sent.
func referenceBody(t *testing.T, streets []soi.Street) []byte {
	t.Helper()
	if streets == nil {
		streets = []soi.Street{}
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(streetsResponse{Streets: streets}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func smallEngine(t *testing.T, cfg soi.Config) *soi.Engine {
	t.Helper()
	ds, err := datagen.Generate(datagen.Small(1))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := soi.NewEngineFromCorpora(ds.Network, ds.POIs, ds.Photos, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestStreetsHitBodyIsMissBody: miss, first hit and second hit of one
// query send the same bytes and headers — the reference encoding of the
// answer another engine computes — for a one-street answer, a long one
// and an empty one; only the second hit reuses an encoded body.
func TestStreetsHitBodyIsMissBody(t *testing.T) {
	s := New(smallEngine(t, soi.Config{}))
	ref := smallEngine(t, soi.Config{})
	for i, c := range []struct {
		url string
		q   soi.Query
	}{
		{"/api/streets?keywords=shop&k=1&eps=0.0005", soi.Query{Keywords: []string{"shop"}, K: 1, Epsilon: 0.0005}},
		{"/api/streets?keywords=shop,food&k=100&eps=0.001", soi.Query{Keywords: []string{"shop", "food"}, K: 100, Epsilon: 0.001}},
		{"/api/streets?keywords=unicorns&k=10&eps=0.0005", soi.Query{Keywords: []string{"unicorns"}, K: 10, Epsilon: 0.0005}},
	} {
		streets, err := ref.TopStreets(c.q)
		if err != nil {
			t.Fatal(err)
		}
		if c.q.K == 100 && len(streets) < 50 {
			t.Fatalf("the long answer holds %d streets", len(streets))
		}
		want := referenceBody(t, streets)
		if len(streets) == 0 && string(want) != "{\"streets\":[]}\n" {
			t.Fatalf("reference for an empty answer = %q", want)
		}
		for _, pass := range []string{"miss", "first hit", "second hit"} {
			rec := rawGet(t, s, c.url)
			if !bytes.Equal(rec.Body.Bytes(), want) {
				t.Errorf("%s, %s: body\n%q\nwant\n%q", c.url, pass, rec.Body.Bytes(), want)
			}
			if ct := rec.Header().Get("Content-Type"); ct != "application/json" || len(rec.Header()) != 1 {
				t.Errorf("%s, %s: headers %v", c.url, pass, rec.Header())
			}
		}
		e := s.engine.StatsSnapshot().Engine
		if e.ResultCacheHits != int64(2*(i+1)) || e.ResultBodyReuse != int64(i+1) {
			t.Errorf("after %s ×3: %d cache hits, %d body reuses, want %d and %d", c.url, e.ResultCacheHits, e.ResultBodyReuse, 2*(i+1), i+1)
		}
	}
}

// TestStreetsOtherPathsEncodePerRequest: a traced request for a cached
// query still reports cached:true with its trace, a batch carrying it
// still answers, a server without a result cache still answers — all with
// the same streets, none through the stored body.
func TestStreetsOtherPathsEncodePerRequest(t *testing.T) {
	const url = "/api/streets?keywords=shop&k=5&eps=0.0005"
	s := New(smallEngine(t, soi.Config{}))
	var want []byte
	for i := 0; i < 3; i++ {
		want = rawGet(t, s, url).Body.Bytes()
	}
	reuses := s.engine.StatsSnapshot().Engine.ResultBodyReuse
	if reuses != 1 {
		t.Fatalf("%d body reuses after miss, hit, hit; want 1", reuses)
	}
	var plain, traced struct {
		Streets []soi.Street    `json:"streets"`
		Trace   *soi.QueryTrace `json:"trace"`
	}
	if err := json.Unmarshal(want, &plain); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(rawGet(t, s, url+"&trace=1").Body.Bytes(), &traced); err != nil {
		t.Fatal(err)
	}
	if traced.Trace == nil || !traced.Trace.Cached || traced.Trace.SegmentsSeen == 0 {
		t.Errorf("traced request for a cached query: trace %+v, want cached with the evaluation's counters", traced.Trace)
	}
	if string(referenceBody(t, traced.Streets)) != string(want) {
		t.Errorf("traced streets %v differ from the plain answer", traced.Streets)
	}
	rec, _ := post(t, s, "/api/streets/batch", `{"queries":[{"keywords":["shop"],"k":5,"eps":0.0005},{"keywords":["shop"],"k":2,"eps":0.0005}]}`)
	var batch struct {
		Results []struct {
			Streets []soi.Street `json:"streets"`
		} `json:"results"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &batch); err != nil || len(batch.Results) != 2 {
		t.Fatalf("batch reply: %v: %s", err, rec.Body)
	}
	if string(referenceBody(t, batch.Results[0].Streets)) != string(want) {
		t.Errorf("batch member %v differs from the plain answer", batch.Results[0].Streets)
	}
	if string(referenceBody(t, batch.Results[1].Streets)) != string(referenceBody(t, plain.Streets[:2])) {
		t.Errorf("k=2 batch member %v is not the k=5 answer's prefix", batch.Results[1].Streets)
	}
	if got := s.engine.StatsSnapshot().Engine.ResultBodyReuse; got != reuses {
		t.Errorf("trace and batch requests moved result_body_reuse %d → %d", reuses, got)
	}

	off := New(smallEngine(t, soi.Config{CacheSize: -1}))
	for i := 0; i < 3; i++ {
		if got := rawGet(t, off, url).Body.Bytes(); !bytes.Equal(got, want) {
			t.Errorf("uncached server, request %d: body %q, want %q", i, got, want)
		}
	}
	if e := off.engine.StatsSnapshot().Engine; e.ResultBodyReuse != 0 || e.ResultCacheHits != 0 {
		t.Errorf("uncached server: %d cache hits, %d body reuses", e.ResultCacheHits, e.ResultBodyReuse)
	}
}

// TestStreetsErrorRepliesAreNotStored: an error is never cached, so a
// repeated bad query is refused afresh each time.
func TestStreetsErrorRepliesAreNotStored(t *testing.T) {
	s := testServer(t)
	for i := 0; i < 3; i++ {
		rec, body := get(t, s, "/api/streets?keywords=shop&k=0")
		if msg, _ := body["error"].(string); rec.Code != http.StatusBadRequest || msg == "" {
			t.Fatalf("request %d: status %d body %v", i, rec.Code, body)
		}
	}
	if e := s.engine.StatsSnapshot().Engine; e.ResultBodyReuse != 0 {
		t.Errorf("%d body reuses for an invalid query", e.ResultBodyReuse)
	}
}
