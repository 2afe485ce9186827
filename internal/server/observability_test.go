package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	soi "repro"
)

// post issues a POST with a JSON body and decodes the JSON response.
func post(t *testing.T, s *Server, url, body string) (*httptest.ResponseRecorder, map[string]interface{}) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, url, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	var out map[string]interface{}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("invalid JSON from %s: %v\n%s", url, err, rec.Body.String())
	}
	return rec, out
}

// TestStatsSchema pins the /api/stats payload shape: the original
// dataset keys plus the stats and runtime observability sections. The
// key sets are a contract — dashboards select on them — so additions
// are fine but renames and removals must fail here.
func TestStatsSchema(t *testing.T) {
	s := testServer(t)
	// Evaluate one query first so the engine section carries live data.
	if rec, _ := get(t, s, "/api/streets?keywords=shop&k=5"); rec.Code != http.StatusOK {
		t.Fatalf("warm-up query: status = %d", rec.Code)
	}
	rec, body := get(t, s, "/api/stats")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	for _, key := range []string{"streets", "pois", "photos", "stats", "runtime"} {
		if _, ok := body[key]; !ok {
			t.Errorf("missing top-level key %q", key)
		}
	}
	st, ok := body["stats"].(map[string]interface{})
	if !ok {
		t.Fatalf("stats section = %T", body["stats"])
	}
	for _, key := range []string{"core", "engine", "diversify"} {
		if _, ok := st[key]; !ok {
			t.Errorf("missing stats section %q", key)
		}
	}
	core := st["core"].(map[string]interface{})
	for _, key := range []string{
		"evaluations", "sl1_cells_popped", "sl2_segments_popped", "sl3_segments_popped",
		"filter_iterations", "cell_visits", "segments_seen", "segments_final",
		"refine_drained",
		"build_lists_ns", "filter_ns", "refine_ns",
	} {
		if _, ok := core[key]; !ok {
			t.Errorf("missing core counter %q", key)
		}
	}
	if core["evaluations"].(float64) < 1 {
		t.Errorf("core evaluations = %v after a served query, want ≥ 1", core["evaluations"])
	}
	eng := st["engine"].(map[string]interface{})
	for _, key := range []string{"queries", "result_cache_hits", "result_cache_misses",
		"dedup_joins", "query_latency", "queue_wait", "busy_ns"} {
		if _, ok := eng[key]; !ok {
			t.Errorf("missing engine counter %q", key)
		}
	}
	// A server over a fixed index evaluates with the bound-ordered drain;
	// TestScheduleFollowsServing has the live one.
	if eng["schedule"] != "drain" {
		t.Errorf("engine schedule = %v, want drain", eng["schedule"])
	}
	if lat := eng["query_latency"].(map[string]interface{}); lat["count"].(float64) < 1 {
		t.Errorf("query_latency count = %v after a served query, want ≥ 1", lat["count"])
	}
	rt := body["runtime"].(map[string]interface{})
	for _, key := range []string{"goroutines", "gomaxprocs", "num_cpu", "heap_alloc_bytes", "heap_sys_bytes", "num_gc"} {
		if _, ok := rt[key]; !ok {
			t.Errorf("missing runtime key %q", key)
		}
	}
	if rt["goroutines"].(float64) < 1 {
		t.Errorf("goroutines = %v", rt["goroutines"])
	}
}

func TestMetricsEndpoint(t *testing.T) {
	s := testServer(t)
	if rec, _ := get(t, s, "/api/streets?keywords=shop&k=5"); rec.Code != http.StatusOK {
		t.Fatalf("warm-up query: status = %d", rec.Code)
	}
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
	out := rec.Body.String()
	for _, want := range []string{
		"# TYPE soi_engine_queries_total counter",
		"soi_engine_queries_total 1",
		"soi_core_sl1_cells_popped_total",
		"soi_engine_query_latency_seconds_bucket{le=\"+Inf\"} 1",
		"soi_runtime_goroutines",
		`soi_engine_schedule_info{schedule="drain"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// POST must be rejected like the JSON endpoints.
	req = httptest.NewRequest(http.MethodPost, "/metrics", strings.NewReader(""))
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST /metrics: status = %d", rec.Code)
	}
}

// TestScheduleFollowsServing: a -live server keeps the paper's filter,
// and says so on both surfaces.
func TestScheduleFollowsServing(t *testing.T) {
	s := testLiveServer(t, soi.LiveConfig{})
	if rec, _ := get(t, s, "/api/streets?keywords=shop&k=5"); rec.Code != http.StatusOK {
		t.Fatalf("warm-up query: status = %d", rec.Code)
	}
	_, body := get(t, s, "/api/stats")
	if got := body["stats"].(map[string]interface{})["engine"].(map[string]interface{})["schedule"]; got != "cost-aware" {
		t.Errorf("live engine schedule = %v, want cost-aware", got)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if want := `soi_engine_schedule_info{schedule="cost-aware"} 1`; !strings.Contains(rec.Body.String(), want) {
		t.Errorf("live exposition missing %q", want)
	}
}

// TestMemoAndBodyCountersExposed pins the describe-context memo's and the
// stored-body counters on both surfaces, under the one vocabulary DESIGN
// §8 gives them: three describes of one street are one miss and two hits
// holding its three photos, three identical street queries one reuse.
func TestMemoAndBodyCountersExposed(t *testing.T) {
	s := testServer(t)
	for _, url := range []string{
		"/api/describe?street=High+St&k=1", "/api/describe?street=High+St&k=2&lambda=0.3", "/api/describe?street=High+St&k=3&w=0.7",
		"/api/streets?keywords=shop&k=5", "/api/streets?keywords=shop&k=5", "/api/streets?keywords=shop&k=5",
	} {
		if rec, body := get(t, s, url); rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %v", url, rec.Code, body)
		}
	}
	_, body := get(t, s, "/api/stats")
	st := body["stats"].(map[string]interface{})
	for section, want := range map[string]map[string]float64{
		"diversify": {"context_memo_hits": 2, "context_memo_misses": 1, "context_memo_evictions": 0, "context_memo_photos": 3},
		"engine":    {"result_body_reuse": 1},
	} {
		for key, v := range want {
			if got, ok := st[section].(map[string]interface{})[key].(float64); !ok || got != v {
				t.Errorf("/api/stats stats.%s.%s = %v, want %v", section, key, st[section].(map[string]interface{})[key], v)
			}
		}
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	for _, want := range []string{
		"# TYPE soi_diversify_context_memo_hits_total counter\nsoi_diversify_context_memo_hits_total 2\n",
		"# TYPE soi_diversify_context_memo_misses_total counter\nsoi_diversify_context_memo_misses_total 1\n",
		"# TYPE soi_diversify_context_memo_evictions_total counter\nsoi_diversify_context_memo_evictions_total 0\n",
		"# TYPE soi_diversify_context_memo_photos gauge\nsoi_diversify_context_memo_photos 3\n",
		"# TYPE soi_engine_result_body_reuse_total counter\nsoi_engine_result_body_reuse_total 1\n",
	} {
		if !strings.Contains(rec.Body.String(), want) {
			t.Errorf("/metrics lacks %q", want)
		}
	}
}

// TestRemoteGatherCountersExposed pins the prune-effectiveness counters
// of the sharded serving path on both surfaces: every answered query
// splits its shards into evaluated and pruned, a refused query adds
// nothing, and a degraded answer's missing shards are in neither count.
func TestRemoteGatherCountersExposed(t *testing.T) {
	counters := func(s *RemoteServer) (evaluated, pruned float64) {
		t.Helper()
		rec, body := rget(t, s, "/api/stats")
		if rec.Code != http.StatusOK {
			t.Fatalf("/api/stats: status = %d", rec.Code)
		}
		remote := body["stats"].(map[string]interface{})["remote"].(map[string]interface{})
		for _, key := range []string{"shards_evaluated", "shards_pruned"} {
			if _, ok := remote[key]; !ok {
				t.Fatalf("missing remote counter %q", key)
			}
		}
		return remote["shards_evaluated"].(float64), remote["shards_pruned"].(float64)
	}

	s, _ := newTestRemoteServer(t, nil)
	if e, p := counters(s); e != 0 || p != 0 {
		t.Fatalf("before any query: evaluated=%v pruned=%v, want 0/0", e, p)
	}
	// The keyword no POI carries zeroes every shard's bound: all pruned.
	for _, url := range []string{
		"/api/streets?keywords=shop,food&k=5&eps=0.0005",
		"/api/streets?keywords=shop&k=1&eps=0.0005",
		"/api/streets?keywords=quixotic&k=3&eps=0.0005",
	} {
		if rec, body := rget(t, s, url); rec.Code != http.StatusOK {
			t.Fatalf("%s: status = %d: %v", url, rec.Code, body)
		}
	}
	e, p := counters(s)
	if e+p != 3*4 {
		t.Errorf("evaluated=%v + pruned=%v after 3 answers over 4 shards, want 12", e, p)
	}
	if e < 2 || p < 4 {
		t.Errorf("evaluated=%v pruned=%v: want ≥ 2 evaluated and the all-pruned query's 4", e, p)
	}
	if rec, _ := rget(t, s, "/api/streets?keywords=shop&k=0"); rec.Code != http.StatusBadRequest {
		t.Fatalf("invalid query: status = %d", rec.Code)
	}
	if e2, p2 := counters(s); e2 != e || p2 != p {
		t.Errorf("a refused query moved the counters: %v/%v → %v/%v", e, p, e2, p2)
	}
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	for _, want := range []string{
		"# TYPE soi_remote_shards_evaluated_total counter",
		fmt.Sprintf("soi_remote_shards_evaluated_total %d\n", int(e)),
		"# TYPE soi_remote_shards_pruned_total counter",
		fmt.Sprintf("soi_remote_shards_pruned_total %d\n", int(p)),
	} {
		if !strings.Contains(rec.Body.String(), want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	degraded, _ := newTestRemoteServer(t, map[int]bool{0: true})
	if rec, body := rget(t, degraded, "/api/streets?keywords=shop,food&k=5&eps=0.0005&partial=1"); rec.Code != http.StatusOK {
		t.Fatalf("partial answer: status = %d: %v", rec.Code, body)
	}
	if e, p := counters(degraded); e+p != 3 {
		t.Errorf("degraded answer: evaluated=%v + pruned=%v, want the 3 live shards", e, p)
	}
}

// TestPprofWired: the single-index server and the remote coordinator
// mount the same profiler routes (httperr.Base).
func TestPprofWired(t *testing.T) {
	coord, _ := newTestRemoteServer(t, nil)
	for name, s := range map[string]http.Handler{"server": testServer(t), "coordinator": coord} {
		for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline"} {
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
			if rec.Code != http.StatusOK {
				t.Errorf("%s: GET %s: status = %d", name, path, rec.Code)
			}
		}
	}
}

// TestTraceRoundTrip covers the ?trace=1 opt-in on /api/streets: the
// trace appears exactly when asked for and carries the per-stage
// counters of a real evaluation.
func TestTraceRoundTrip(t *testing.T) {
	s := testServer(t)
	rec, body := get(t, s, "/api/streets?keywords=shop&k=5&trace=1")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %v", rec.Code, body)
	}
	trace, ok := body["trace"].(map[string]interface{})
	if !ok {
		t.Fatalf("trace = %T (%v), want object", body["trace"], body["trace"])
	}
	for _, key := range []string{
		"cached", "build_lists_us", "filter_us", "refine_us",
		"sl1_cells_popped", "sl2_segments_popped", "sl3_segments_popped",
		"filter_iterations", "cell_visits", "segments_seen", "segments_final",
		"refine_drained", "total_segments", "total_cells",
	} {
		if _, ok := trace[key]; !ok {
			t.Errorf("trace missing key %q", key)
		}
	}
	if trace["cached"].(bool) {
		t.Error("first evaluation reported cached=true")
	}
	if trace["segments_final"].(float64) < 1 || trace["total_segments"].(float64) < 1 {
		t.Errorf("trace carries no work: %v", trace)
	}

	// The same query again is answered from the result cache and the
	// trace must say so.
	_, body = get(t, s, "/api/streets?keywords=shop&k=5&trace=1")
	if trace := body["trace"].(map[string]interface{}); !trace["cached"].(bool) {
		t.Error("repeat evaluation reported cached=false, want a result-cache hit")
	}

	// Without the parameter (or with a falsy value) no trace is emitted.
	for _, url := range []string{
		"/api/streets?keywords=shop&k=5",
		"/api/streets?keywords=shop&k=5&trace=0",
		"/api/streets?keywords=shop&k=5&trace=false",
	} {
		_, body := get(t, s, url)
		if _, ok := body["trace"]; ok {
			t.Errorf("%s: unexpected trace in response", url)
		}
	}
}

// TestBatchErrors is the table of /api/streets/batch failure modes.
func TestBatchErrors(t *testing.T) {
	s := testServer(t)
	oversized := `{"queries":[` + strings.Repeat(`{"keywords":["shop"],"k":1},`, 1024) + `{"keywords":["shop"],"k":1}]}`
	cases := []struct {
		name, body string
		status     int
		errSubstr  string
	}{
		{"malformed JSON", `{"queries":[`, http.StatusBadRequest, "decoding request"},
		{"not JSON at all", `hello`, http.StatusBadRequest, "decoding request"},
		{"empty body object", `{}`, http.StatusBadRequest, "no queries"},
		{"empty query list", `{"queries":[]}`, http.StatusBadRequest, "no queries"},
		{"oversized batch", oversized, http.StatusBadRequest, "batch limit"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rec, body := post(t, s, "/api/streets/batch", c.body)
			if rec.Code != c.status {
				t.Fatalf("status = %d, want %d (%v)", rec.Code, c.status, body)
			}
			msg, _ := body["error"].(string)
			if !strings.Contains(msg, c.errSubstr) {
				t.Fatalf("error = %q, want substring %q", msg, c.errSubstr)
			}
		})
	}
	// GET is not a valid method for the batch endpoint.
	if rec, _ := get(t, s, "/api/streets/batch"); rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET batch: status = %d", rec.Code)
	}
}

// TestBatchMixedResults covers per-entry isolation: one request mixing a
// valid query, an unknown-keyword query and an invalid query must
// succeed per-entry and fail per-entry, in request order.
func TestBatchMixedResults(t *testing.T) {
	s := testServer(t)
	body := `{"queries":[
		{"keywords":["shop"],"k":5},
		{"keywords":["unicorns"],"k":5},
		{"k":5}
	]}`
	rec, out := post(t, s, "/api/streets/batch", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %v", rec.Code, out)
	}
	results := out["results"].([]interface{})
	if len(results) != 3 {
		t.Fatalf("results = %d entries, want 3", len(results))
	}
	first := results[0].(map[string]interface{})
	if errMsg, _ := first["error"].(string); errMsg != "" {
		t.Fatalf("valid query failed: %v", errMsg)
	}
	if streets := first["streets"].([]interface{}); len(streets) == 0 {
		t.Error("valid query returned no streets")
	}
	second := results[1].(map[string]interface{})
	if streets, ok := second["streets"].([]interface{}); !ok || len(streets) != 0 {
		t.Errorf("unknown keywords: streets = %v, want empty list", second["streets"])
	}
	third := results[2].(map[string]interface{})
	if errMsg, _ := third["error"].(string); errMsg == "" {
		t.Error("keyword-less query succeeded, want per-entry error")
	}
}

func TestBatchTrace(t *testing.T) {
	s := testServer(t)
	body := `{"queries":[{"keywords":["shop"],"k":5},{"keywords":["shop"],"k":5}]}`
	rec, out := post(t, s, "/api/streets/batch?trace=1", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %v", rec.Code, out)
	}
	results := out["results"].([]interface{})
	for i, r := range results {
		entry := r.(map[string]interface{})
		trace, ok := entry["trace"].(map[string]interface{})
		if !ok {
			t.Fatalf("entry %d missing trace: %v", i, entry)
		}
		if trace["segments_final"].(float64) < 1 {
			t.Errorf("entry %d trace carries no work: %v", i, trace)
		}
	}
	// Identical queries coalesce into one evaluation; with the trace they
	// share, both entries must report the same counters.
	if fmt.Sprint(results[0]) != fmt.Sprint(results[1]) {
		t.Errorf("coalesced entries diverge:\n%v\n%v", results[0], results[1])
	}
	// Without trace=1 no entry carries a trace.
	_, out = post(t, s, "/api/streets/batch", body)
	for i, r := range out["results"].([]interface{}) {
		if _, ok := r.(map[string]interface{})["trace"]; ok {
			t.Errorf("entry %d has unexpected trace", i)
		}
	}
}
