package remote_test

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/remote"
)

// fuzzQueryTimeout is the fuzzed shard's per-query deadline; a request
// may run out of it (504) but must never outlive it by more than a
// second of decoding and encoding.
const fuzzQueryTimeout = 2 * time.Second

// FuzzShardQuery drives arbitrary bodies at POST /shard/query on one shard
// of a four-tile world, in process. The contract is the HTTP tier's: a
// 200 whose body decodes to an answer from this shard with a finite,
// non-negative bound and at most k results, or a typed 4xx, 503 or 504
// with a JSON error — never a 500, never past the query timeout.
func FuzzShardQuery(f *testing.F) {
	w := testWorld(f, 4, 1)
	s := remote.NewServer(shardData(w, 0), remote.ServerConfig{Engine: engine.Config{QueryTimeout: fuzzQueryTimeout}})
	for _, body := range []string{
		`{"keywords":["shop","food"],"k":5,"eps":0.0005}`,
		`{"keywords":["shop"],"k":1099511627776,"eps":1e-300}`,
		`{"keywords":["shop"],"k":0,"eps":0.0005}`, `{"keywords":["shop"],"k":-1,"eps":0.0005}`,
		`{"keywords":["shop"],"k":5,"eps":0.0024}`, `{"keywords":["shop"],"k":5,"eps":-0.0005}`,
		`{"keywords":["nosuchword"],"k":5}`, `{"keywords":[],"k":5,"eps":0.0005}`, `{"k":5}`,
		`{not json`, `{}`, `null`, `[]`,
	} {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body string) {
		rec := httptest.NewRecorder()
		start := time.Now()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/shard/query", strings.NewReader(body)))
		if took := time.Since(start); took > fuzzQueryTimeout+time.Second {
			t.Fatalf("took %v, query timeout %v\nrequest: %q", took, fuzzQueryTimeout, body)
		}
		switch code := rec.Code; {
		case code == http.StatusOK:
		case code >= 400 && code < 500, code == http.StatusServiceUnavailable, code == http.StatusGatewayTimeout:
			var e struct{ Error string }
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
				t.Fatalf("%d without a JSON error (%v): %s\nrequest: %q", code, err, rec.Body.String(), body)
			}
			return
		default:
			t.Fatalf("status %d: %s\nrequest: %q", code, rec.Body.String(), body)
		}
		var resp remote.QueryResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("200 with an undecodable body: %v\n%s\nrequest: %q", err, rec.Body.String(), body)
		}
		var req remote.QueryRequest
		if err := json.NewDecoder(strings.NewReader(body)).Decode(&req); err != nil {
			t.Fatalf("200 for a request the decoder refuses: %v\nrequest: %q", err, body)
		}
		if resp.Shard != 0 || !(resp.UB >= 0) || math.IsInf(resp.UB, 1) || len(resp.Results) > req.K {
			t.Fatalf("200 from shard %d with bound %v and %d results for k = %d\nrequest: %q",
				resp.Shard, resp.UB, len(resp.Results), req.K, body)
		}
	})
}
