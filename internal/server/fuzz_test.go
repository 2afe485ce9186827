package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro"
)

// fuzzQueryTimeout is the fuzzed engine's per-query deadline. A request
// may run out of it (504) but must never outlive it by more than
// fuzzSlack, the allowance for decoding and encoding around the query.
const (
	fuzzQueryTimeout = 2 * time.Second
	fuzzSlack        = time.Second
)

// serveFuzz serves one fuzzed request and holds the answer to the
// boundary's contract: a 200, or a typed 4xx, 503 or 504 with a JSON
// error — never a 500, never past the query timeout. It returns the body
// of a 200 for the caller's own checks, nil for any other status. input
// is the fuzzed text, for the failure message.
func serveFuzz(t *testing.T, s *Server, req *http.Request, input string) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	start := time.Now()
	s.ServeHTTP(rec, req)
	if took := time.Since(start); took > fuzzQueryTimeout+fuzzSlack {
		t.Fatalf("%s took %v, query timeout %v\ninput: %q", req.URL.Path, took, fuzzQueryTimeout, input)
	}
	switch code := rec.Code; {
	case code == http.StatusOK:
		return rec.Body.Bytes()
	case code >= 400 && code < 500, code == http.StatusServiceUnavailable, code == http.StatusGatewayTimeout:
		var e struct{ Error string }
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
			t.Fatalf("%d without a JSON error (%v): %s\ninput: %q", code, err, rec.Body.String(), input)
		}
	default:
		t.Fatalf("status %d: %s\ninput: %q", code, rec.Body.String(), input)
	}
	return nil
}

// fuzzEndpoint drives arbitrary bodies at one POST endpoint of a small
// world under serveFuzz's contract; a 200's body must decode to at most k
// rows under key (k as the handler reads it, defK when omitted).
func fuzzEndpoint(f *testing.F, path, key string, defK int, seeds []string) {
	s := testServerConfigured(f, soi.Config{QueryTimeout: fuzzQueryTimeout}, Config{})
	for _, body := range seeds {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body string) {
		out := serveFuzz(t, s, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)), body)
		if out == nil {
			return
		}
		var resp map[string][]json.RawMessage
		if err := json.Unmarshal(out, &resp); err != nil {
			t.Fatalf("200 with an undecodable body: %v\n%s\nrequest: %q", err, out, body)
		}
		// The handler decoded the request with a json.Decoder, so the
		// same decoder reads the same k.
		var q struct{ K int }
		if err := json.NewDecoder(strings.NewReader(body)).Decode(&q); err != nil {
			t.Fatalf("200 for a request the decoder refuses: %v\nrequest: %q", err, body)
		}
		if q.K == 0 {
			q.K = defK
		}
		if rows, ok := resp[key]; !ok || len(rows) > q.K {
			t.Fatalf("200 with %d %s rows (present %v) for k = %d\nrequest: %q", len(rows), key, ok, q.K, body)
		}
	})
}

// fuzzGet drives arbitrary query strings at one GET endpoint of
// testServer's world (photos included) under serveFuzz's contract; a
// 200's body must be a JSON object.
func fuzzGet(f *testing.F, path string, seeds []string) {
	s := testServerWith(f, soi.Config{QueryTimeout: fuzzQueryTimeout})
	for _, query := range seeds {
		f.Add(query)
	}
	f.Fuzz(func(t *testing.T, query string) {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		req.URL.RawQuery = query
		if out := serveFuzz(t, s, req, query); out != nil {
			var resp map[string]json.RawMessage
			if err := json.Unmarshal(out, &resp); err != nil {
				t.Fatalf("200 with an undecodable body: %v\n%s\nquery: %q", err, out, query)
			}
		}
	})
}

// FuzzTrajectorySOI starts from the endpoint's contract table and a few
// requests at the matcher's edges: the floored radius, a radius past the
// world's extent, points far outside it, empty and repeated traces.
func FuzzTrajectorySOI(f *testing.F) {
	fuzzEndpoint(f, "/api/trajectories/soi", "streets", 10, append([]string{
		`{"traces":[[[0.0002,0.00005],[0.001,-0.00005],[0.0018,0.00005]],[[0.0021,0.001]]],"keywords":["shop"],"k":5,"radius":0.0003}`,
		`{"traces":[[[0.001,0]]],"keywords":["shop","food"],"radius":1e-300}`,
		`{"traces":[[[0.001,0],[0.002,0.001]]],"keywords":["food"],"k":1099511627776,"radius":1e300}`,
		`{"traces":[[[1e300,-1e300],[-5,7]],[]],"keywords":["shop"],"eps":1e300}`,
		`{"traces":[[],[]],"keywords":["nosuchword"],"k":1}`,
	}, badTrajBodies...))
}

// FuzzRoutesTopK starts from the endpoint's contract table and a few
// requests at the search's edges: a budget far past the world, endpoints
// far outside it, huge k and α.
func FuzzRoutesTopK(f *testing.F) {
	fuzzEndpoint(f, "/api/routes/topk", "routes", 3, append([]string{
		`{"src":[0,0],"dst":[0.002,0.002],"keywords":["shop"],"k":2,"budget":0.02}`,
		`{"src":[0,0],"dst":[0.002,0],"keywords":["shop","food"],"budget":1e300,"alpha":1e300}`,
		`{"src":[-1e300,1e300],"dst":[1e300,0],"keywords":["food"],"k":1099511627776,"budget":1e-300}`,
		`{"src":[0.002,0],"dst":[0.002,0],"keywords":["nosuchword"],"budget":1,"eps":1e300}`,
	}, badRoutesBodies...))
}

// FuzzDescribe starts from TestDescribeErrors' requests and the numbers a
// request controls at their edges: a huge k, λ and w outside [0,1], ρ at
// 1e-300 and 1e300, ε NaN.
func FuzzDescribe(f *testing.F) {
	fuzzGet(f, "/api/describe", []string{
		"", "street=Ghost+Road&k=2", "street=High+St&k=zzz", "street=High+St&lambda=nope", "street=Side+St&eps=0.00001",
		"street=High+St&k=2",
		"street=High+St&k=1099511627776",
		"street=High+St&lambda=-1&w=2", "street=High+St&lambda=1.5&w=-0.5",
		"street=High+St&rho=1e-300", "street=High+St&rho=1e300",
		"street=High+St&eps=NaN",
	})
}

// FuzzTour starts from TestTourErrors' requests and the numbers a request
// controls at their edges: a huge k, a budget of 1e300, ε NaN.
func FuzzTour(f *testing.F) {
	fuzzGet(f, "/api/tour", []string{
		"keywords=shop", "budget=1", "keywords=unicorns&budget=1",
		"keywords=shop&budget=1&eps=NaN", "keywords=shop&budget=1&eps=Inf", "keywords=shop&budget=1&eps=-Inf",
		"keywords=shop&budget=NaN", "keywords=shop&budget=Inf", "keywords=shop&budget=-Inf", "keywords=shop&budget=0",
		"keywords=shop&k=5&budget=1",
		"keywords=shop&k=1099511627776&budget=1",
		"keywords=shop&budget=1e300",
	})
}

// FuzzStreets starts from the /api/streets requests the error tests and
// the traced tests send, and the numbers a request controls at their
// edges: a huge or non-numeric k, ε negative, NaN, past the halo.
func FuzzStreets(f *testing.F) {
	fuzzGet(f, "/api/streets", []string{
		"", "keywords=shop&k=5", "keywords=shop,food&k=5&eps=0.0005&trace=1",
		"keywords=shop&k=0", "keywords=shop&k=abc", "keywords=unicorns",
		"keywords=shop&k=5&eps=0.5", "keywords=shop&k=5&eps=-0.1",
		"keywords=shop&k=1099511627776", "keywords=shop&eps=NaN", "keywords=shop&eps=1e-300",
		"keywords=shop,food&k=5&eps=0.0005&partial=1",
	})
}

// FuzzStreetsBatch drives arbitrary bodies at /api/streets/batch under
// serveFuzz's contract. A 200 carries one results entry per query the
// decoder reads, each either an error or at most k streets (k as the
// handler defaults it).
func FuzzStreetsBatch(f *testing.F) {
	s := testServerConfigured(f, soi.Config{QueryTimeout: fuzzQueryTimeout}, Config{})
	for _, body := range []string{
		`{"queries":[{"keywords":["shop"],"k":2,"eps":0.0005},{"keywords":["shop"],"k":7,"eps":0.0005}]}`,
		`{"queries":[{"keywords":["shop"],"k":5},{"keywords":["unicorns"],"k":5},{"k":5}]}`,
		`{"queries":[{"keywords":["shop","food"],"k":1099511627776,"eps":1e-300}]}`,
		`{"queries":[{"keywords":["food"],"k":-1,"eps":1e300},{"keywords":["shop"],"eps":-0.1}]}`,
		`{"queries":[`, `hello`, `{}`, `{"queries":[]}`, `{"queries":null}`,
	} {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body string) {
		out := serveFuzz(t, s, httptest.NewRequest(http.MethodPost, "/api/streets/batch", strings.NewReader(body)), body)
		if out == nil {
			return
		}
		var resp struct {
			Results []struct {
				Streets []json.RawMessage
				Error   string
			}
		}
		if err := json.Unmarshal(out, &resp); err != nil {
			t.Fatalf("200 with an undecodable body: %v\n%s\nrequest: %q", err, out, body)
		}
		var req struct{ Queries []struct{ K int } }
		if err := json.NewDecoder(strings.NewReader(body)).Decode(&req); err != nil {
			t.Fatalf("200 for a request the decoder refuses: %v\nrequest: %q", err, body)
		}
		if len(resp.Results) != len(req.Queries) {
			t.Fatalf("200 with %d results for %d queries\nrequest: %q", len(resp.Results), len(req.Queries), body)
		}
		for i, r := range resp.Results {
			k := req.Queries[i].K
			if k == 0 {
				k = 10
			}
			if r.Error == "" && (r.Streets == nil || len(r.Streets) > k) {
				t.Fatalf("result %d: %d streets (null %v) for k = %d\nrequest: %q", i, len(r.Streets), r.Streets == nil, k, body)
			}
		}
	})
}

// FuzzPOIs drives arbitrary bodies at POST /api/pois under serveFuzz's
// contract, each on a fresh -live server so that accepted writes cannot
// pile up across inputs. A refused body appends nothing and leaves the
// serving epoch where it was; a 200 reports as many POIs as the decoder
// reads and an epoch that moved exactly when the body asked to publish.
func FuzzPOIs(f *testing.F) {
	for _, body := range []string{
		`{"x":0.0004,"y":0.0051,"keywords":["museum"]}`,
		`{"pois":[{"x":0.0004,"y":0.0051,"keywords":["museum"]},{"x":0.0008,"y":0.0049,"keywords":["museum","shop"],"weight":2}],"publish":true}`,
		`{"x":0.0012,"y":0.005,"keywords":["museum"],"publish":true}`,
		`{}`, `{"pois":[]}`, `{"pois":`, `{"pois":[{"x":1,"y":1}]}`, `{"pois":null,"keywords":["shop"]}`,
		`{"x":1e9,"y":1e9,"keywords":["shop"]}`, `{"x":-1e300,"y":1e300,"keywords":["shop"],"publish":true}`,
		`{"x":20,"y":-20,"keywords":["shop"],"publish":true}`,
		`{"x":0,"y":0,"keywords":["shop"],"weight":1e308}`, `{"x":0,"y":0,"keywords":["shop"],"weight":-0.5}`,
		`{"x":0,"y":0,"keywords":[""," ","SHOP"],"weight":1e9,"publish":true}`,
	} {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body string) {
		s := testLiveServer(t, soi.LiveConfig{Config: soi.Config{QueryTimeout: fuzzQueryTimeout}})
		before := s.engine.Epoch()
		out := serveFuzz(t, s, httptest.NewRequest(http.MethodPost, "/api/pois", strings.NewReader(body)), body)
		_, published, pending := s.engine.IngestCounts()
		if out == nil {
			if epoch := s.engine.Epoch(); epoch != before || published != 0 || pending != 0 {
				t.Fatalf("a refused body moved the epoch %d → %d with %d published and %d pending deltas\nrequest: %q",
					before, epoch, published, pending, body)
			}
			return
		}
		var resp poisResponse
		if err := json.Unmarshal(out, &resp); err != nil {
			t.Fatalf("200 with an undecodable body: %v\n%s\nrequest: %q", err, out, body)
		}
		var req poisRequest
		if err := json.NewDecoder(strings.NewReader(body)).Decode(&req); err != nil {
			t.Fatalf("200 for a request the decoder refuses: %v\nrequest: %q", err, body)
		}
		added := len(req.POIs)
		if added == 0 {
			added = 1 // the inline POI
		}
		epoch := before
		if req.Publish {
			epoch++
		}
		if resp.Added != added || resp.Published != req.Publish || resp.Epoch != epoch || s.engine.Epoch() != epoch ||
			resp.Pending != pending || published+pending != added {
			t.Fatalf("200 %+v with %d published and %d pending, epoch %d; want %d added, epoch %d\nrequest: %q",
				resp, published, pending, s.engine.Epoch(), added, epoch, body)
		}
	})
}
