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

// fuzzEndpoint drives arbitrary bodies at one POST endpoint of a small
// world and holds every answer to the boundary's contract: a 200 whose
// body decodes to at most k rows under key (k as the handler reads it,
// defK when omitted), or a typed 4xx, 503 or 504 with a JSON error —
// never a 500, never past the query timeout.
func fuzzEndpoint(f *testing.F, path, key string, defK int, seeds []string) {
	s := testServerConfigured(f, soi.Config{QueryTimeout: fuzzQueryTimeout}, Config{})
	for _, body := range seeds {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body string) {
		req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
		rec := httptest.NewRecorder()
		start := time.Now()
		s.ServeHTTP(rec, req)
		if took := time.Since(start); took > fuzzQueryTimeout+fuzzSlack {
			t.Fatalf("%s took %v, query timeout %v\nbody: %q", path, took, fuzzQueryTimeout, body)
		}
		switch code := rec.Code; {
		case code == http.StatusOK:
			var resp map[string][]json.RawMessage
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("200 with an undecodable body: %v\n%s\nrequest: %q", err, rec.Body.String(), body)
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
		case code >= 400 && code < 500, code == http.StatusServiceUnavailable, code == http.StatusGatewayTimeout:
			var e struct{ Error string }
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
				t.Fatalf("%d without a JSON error (%v): %s\nrequest: %q", code, err, rec.Body.String(), body)
			}
		default:
			t.Fatalf("status %d: %s\nrequest: %q", code, rec.Body.String(), body)
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
