package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	soi "repro"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/httperr"
	"repro/internal/remote"
	"repro/internal/shard"
	"repro/internal/stats"
)

// TestHealthReadyEndpoints: /healthz is pure liveness, /readyz follows
// the drain flag — the same contract soishard exposes, so a load
// balancer (or the remote client's breaker probe) can treat every
// serving surface alike.
func TestHealthReadyEndpoints(t *testing.T) {
	s := testServer(t)
	check := func(path string, want int) {
		t.Helper()
		rec, _ := get(t, s, path)
		if rec.Code != want {
			t.Errorf("%s: status %d, want %d", path, rec.Code, want)
		}
	}
	check("/healthz", http.StatusOK)
	check("/readyz", http.StatusOK)
	s.SetDraining(true)
	check("/healthz", http.StatusOK) // draining is still alive
	check("/readyz", http.StatusServiceUnavailable)
	s.SetDraining(false)
	check("/readyz", http.StatusOK)
}

// TestDeadlineMapsTo504: an expired per-query deadline surfaces as 504
// Gateway Timeout through the shared mapper — not 400, not 500.
func TestDeadlineMapsTo504(t *testing.T) {
	defer faults.Reset()
	block := make(chan struct{})
	defer close(block)
	faults.Activate(engine.SiteEvaluate, faults.Fault{Block: block, Times: 1})

	s := testServerConfigured(t,
		soi.Config{Workers: 1, CacheSize: -1, QueryTimeout: 30 * time.Millisecond}, Config{})
	rec, body := get(t, s, "/api/streets?keywords=shop&k=2")
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504: %v", rec.Code, body)
	}
	if body["error"] == nil {
		t.Fatal("504 without a JSON error body")
	}
}

// TestClientCancelMapsTo499: a client that goes away mid-evaluation is
// recorded as the nginx-convention 499, not blamed on the query (400)
// or the server (500).
func TestClientCancelMapsTo499(t *testing.T) {
	defer faults.Reset()
	block := make(chan struct{})
	defer close(block)
	faults.Activate(engine.SiteEvaluate, faults.Fault{Block: block, Times: 1})

	s := testServerConfigured(t, soi.Config{Workers: 1, CacheSize: -1}, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest(http.MethodGet, "/api/streets?keywords=shop&k=2", nil).WithContext(ctx)
	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		s.ServeHTTP(rec, req)
		close(done)
	}()
	waitUntil(t, func() bool { return faults.Visits(engine.SiteEvaluate) >= 1 })
	cancel()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("handler did not return after client cancellation")
	}
	if rec.Code != httperr.StatusClientClosedRequest {
		t.Fatalf("status = %d, want 499\n%s", rec.Code, rec.Body.String())
	}
}

// serverRemoteQuerier is an in-process partitioned world's querier with
// per-shard kill switches, so the remote serving surface is testable
// without sockets.
type serverRemoteQuerier struct {
	shard.RemoteQuerier
	dead map[int]bool
}

func (f *serverRemoteQuerier) Query(ctx context.Context, sh int, q core.Query) (*remote.QueryResponse, error) {
	if f.dead[sh] {
		return nil, context.DeadlineExceeded
	}
	return f.RemoteQuerier.Query(ctx, sh, q)
}

func newTestRemoteServer(t *testing.T, dead map[int]bool) (*RemoteServer, *stats.Recorder) {
	t.Helper()
	ds, err := datagen.Generate(datagen.Tiny(7))
	if err != nil {
		t.Fatal(err)
	}
	w, err := shard.Partition(ds.Network, ds.POIs, shard.Config{Tiles: 4, Halo: 0.0012, CellSize: 0.0005})
	if err != nil {
		t.Fatal(err)
	}
	rec := stats.NewRecorder()
	coord := shard.NewRemoteCoordinator(&serverRemoteQuerier{RemoteQuerier: w.Querier(), dead: dead}, w.Halo)
	return NewRemoteServer(RemoteConfig{Coordinator: coord, Recorder: rec}), rec
}

func rget(t *testing.T, s *RemoteServer, url string) (*httptest.ResponseRecorder, map[string]interface{}) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, url, nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	var body map[string]interface{}
	if len(rec.Body.Bytes()) > 0 {
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("invalid JSON from %s: %v\n%s", url, err, rec.Body.String())
		}
	}
	return rec, body
}

// TestRemoteServerCleanAnswerUntagged: with every shard reachable the
// remote surface answers like the single-process one — 200, streets,
// and neither degradation field present.
func TestRemoteServerCleanAnswerUntagged(t *testing.T) {
	s, _ := newTestRemoteServer(t, nil)
	rec, body := rget(t, s, "/api/streets?keywords=shop,food&k=5&eps=0.0005")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %v", rec.Code, body)
	}
	if _, present := body["degraded"]; present {
		t.Errorf("clean answer carries a degraded tag: %v", body)
	}
	if _, present := body["missing_shards"]; present {
		t.Errorf("clean answer carries missing_shards: %v", body)
	}
	if body["streets"] == nil {
		t.Errorf("no streets in %v", body)
	}
}

// TestRemoteServerUnavailableMapsTo503: a query that cannot reach every
// shard it needs refuses with 503 + Retry-After by default — the shared
// mapper routing the coordinator's typed unavailable error.
func TestRemoteServerUnavailableMapsTo503(t *testing.T) {
	s, _ := newTestRemoteServer(t, map[int]bool{0: true})
	rec, body := rget(t, s, "/api/streets?keywords=shop,food&k=5&eps=0.0005")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503: %v", rec.Code, body)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("503 without a Retry-After hint")
	}
	msg, _ := body["error"].(string)
	if !strings.Contains(msg, "shard") {
		t.Errorf("error %q does not name the missing shards", msg)
	}
}

// TestRemoteServerPartialOptIn: ?partial=1 opts into graceful
// degradation — 200 with the degraded tag and the missing shard list,
// and the degradation counters bumped.
func TestRemoteServerPartialOptIn(t *testing.T) {
	s, rec0 := newTestRemoteServer(t, map[int]bool{0: true})
	rec, body := rget(t, s, "/api/streets?keywords=shop,food&k=5&eps=0.0005&partial=1")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200: %v", rec.Code, body)
	}
	if body["degraded"] != true {
		t.Fatalf("partial answer not tagged degraded: %v", body)
	}
	missing, ok := body["missing_shards"].([]interface{})
	if !ok || len(missing) == 0 {
		t.Fatalf("missing_shards absent or empty: %v", body)
	}
	snap := rec0.Snapshot()
	if snap.Remote.Degraded < 1 || snap.Remote.ShardsMissing < 1 {
		t.Errorf("degradation counters not bumped: %+v", snap.Remote)
	}
}

// TestRemoteServerValidationMapsTo400: malformed queries answer 400
// before any shard is consulted, same as the single-process surface.
func TestRemoteServerValidationMapsTo400(t *testing.T) {
	s, _ := newTestRemoteServer(t, nil)
	for _, url := range []string{
		"/api/streets?keywords=shop&k=0",          // invalid k
		"/api/streets?keywords=shop&k=abc",        // unparsable k
		"/api/streets?keywords=shop&k=5&eps=0.5",  // ε exceeds the halo
		"/api/streets?keywords=shop&k=5&eps=-0.1", // negative ε
	} {
		rec, body := rget(t, s, url)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%v)", url, rec.Code, body)
		}
	}
}
