package remote_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/remote"
	"repro/internal/shard"
)

// testWorld builds a deterministic partitioned world for remote tests.
func testWorld(t testing.TB, tiles int, seed int64) *shard.World {
	t.Helper()
	ds, err := datagen.Generate(datagen.Tiny(seed))
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	w, err := shard.Partition(ds.Network, ds.POIs, shard.Config{Tiles: tiles, Halo: 0.0012, CellSize: 0.0005})
	if err != nil {
		t.Fatalf("partition: %v", err)
	}
	return w
}

// shardData adapts one shard of a world to the server's input.
func shardData(w *shard.World, i int) remote.ShardData {
	s := w.Shards[i]
	return remote.ShardData{
		ShardID:  s.ID,
		Shards:   len(w.Shards),
		TileX:    s.TileX,
		TileY:    s.TileY,
		Halo:     w.Halo,
		CellSize: w.CellSize,
		Index:    s.Index,
		Streets:  s.Streets,
		Segments: s.Segments,
	}
}

// startShards serves every shard of a world over httptest and returns
// the servers plus the per-shard address table.
func startShards(t *testing.T, w *shard.World, cfg remote.ServerConfig) ([]*httptest.Server, [][]string) {
	t.Helper()
	servers := make([]*httptest.Server, len(w.Shards))
	addrs := make([][]string, len(w.Shards))
	for i := range w.Shards {
		hs := httptest.NewServer(remote.NewServer(shardData(w, i), cfg))
		t.Cleanup(hs.Close)
		servers[i] = hs
		addrs[i] = []string{hs.URL}
	}
	return servers, addrs
}

func testQuery() core.Query {
	return core.Query{Keywords: []string{"shop", "food"}, K: 5, Epsilon: 0.0005}
}

func postQuery(t *testing.T, url string, req remote.QueryRequest) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/shard/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// TestServerQueryMatchesLocal: a /shard/query answer must be
// bit-identical to evaluating the shard's index in-process, with ids
// mapped to the global space — the wire must not perturb anything.
func TestServerQueryMatchesLocal(t *testing.T) {
	w := testWorld(t, 4, 1)
	servers, _ := startShards(t, w, remote.ServerConfig{})
	q := testQuery()
	for i, s := range w.Shards {
		want, _, err := s.Index.SOIContext(context.Background(), q, core.CostAware, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, body := postQuery(t, servers[i].URL, remote.QueryRequest{Keywords: q.Keywords, K: q.K, Epsilon: q.Epsilon})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("shard %d: status %d: %s", i, resp.StatusCode, body)
		}
		var out remote.QueryResponse
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		if out.Shard != i {
			t.Errorf("shard %d: response claims shard %d", i, out.Shard)
		}
		wantUB, err := s.Index.UnseenBound(q)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(out.UB) != math.Float64bits(wantUB) {
			t.Errorf("shard %d: UB %v != %v", i, out.UB, wantUB)
		}
		if len(out.Results) != len(want) {
			t.Fatalf("shard %d: %d results, want %d", i, len(out.Results), len(want))
		}
		for j, r := range out.Results {
			lw := want[j]
			if r.Street != s.Streets[lw.Street] || r.BestSegment != s.Segments[lw.BestSegment] {
				t.Errorf("shard %d result %d: ids %d/%d, want global %d/%d",
					i, j, r.Street, r.BestSegment, s.Streets[lw.Street], s.Segments[lw.BestSegment])
			}
			if math.Float64bits(r.Interest) != math.Float64bits(lw.Interest) ||
				math.Float64bits(r.Mass) != math.Float64bits(lw.Mass) {
				t.Errorf("shard %d result %d: interest/mass drifted across the wire", i, j)
			}
		}
	}
}

// TestServerDecidesItsEvaluator: a shard server's index is fixed, so it
// evaluates with Drain, and its /metrics says so.
func TestServerDecidesItsEvaluator(t *testing.T) {
	w := testWorld(t, 2, 1)
	servers, _ := startShards(t, w, remote.ServerConfig{})
	q := testQuery()
	for _, k := range []int{q.K, q.K + 3} {
		resp, body := postQuery(t, servers[0].URL, remote.QueryRequest{Keywords: q.Keywords, K: k, Epsilon: q.Epsilon})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		var out remote.QueryResponse
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		st := out.Stats
		if st.SegmentsSeen == 0 || st.FilterIterations != 0 || st.SegmentAccesses != 0 {
			t.Fatalf("k=%d: stats %+v, want a Drain evaluation", k, st)
		}
	}
	resp, err := http.Get(servers[0].URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if want := `soi_engine_schedule_info{schedule="drain"} 1`; !strings.Contains(buf.String(), want) {
		t.Fatalf("/metrics lacks %q", want)
	}
}

// TestServerAnswerCarriesBound pins what a one-round gather reads off an
// answer: its "ub" is Float64bits-equal to Index.UnseenBound — also when
// the request still carries the retired bound_only flag, an unknown field
// a shard now ignores — and a shard whose bound is 0 answers {shard, ub:0}
// with no results and zero Stats without taking an executor slot: its
// only worker is wedged on another request throughout.
func TestServerAnswerCarriesBound(t *testing.T) {
	defer faults.Reset()
	w := testWorld(t, 4, 42)
	servers, _ := startShards(t, w, remote.ServerConfig{Engine: engine.Config{Workers: 1, CacheSize: -1}})
	full, bare := testQuery(), core.Query{Keywords: []string{"education"}, K: 3, Epsilon: 0.0005}

	post := func(ctx context.Context, i int, body string) remote.QueryResponse {
		t.Helper()
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, servers[i].URL+"/shard/query", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("shard %d %s: %v", i, body, err)
		}
		defer resp.Body.Close()
		var out remote.QueryResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("shard %d %s: status %d, decode %v", i, body, resp.StatusCode, err)
		}
		return out
	}

	zero := 0
	for i, s := range w.Shards {
		wantUB, err := s.Index.UnseenBound(full)
		if err != nil {
			t.Fatal(err)
		}
		plain := post(context.Background(), i, `{"keywords":["shop","food"],"k":5,"eps":0.0005}`)
		legacy := post(context.Background(), i, `{"keywords":["shop","food"],"k":5,"eps":0.0005,"bound_only":true}`)
		for _, out := range []remote.QueryResponse{plain, legacy} {
			if out.Shard != i || math.Float64bits(out.UB) != math.Float64bits(wantUB) {
				t.Errorf("shard %d: answer {shard %d, ub %v}, want ub %v", i, out.Shard, out.UB, wantUB)
			}
		}
		if wantUB == 0 || len(plain.Results) == 0 || !reflect.DeepEqual(plain.Results, legacy.Results) {
			t.Fatalf("shard %d (ub=%v): %d results plain, %d with the retired flag; want the same full evaluation",
				i, wantUB, len(plain.Results), len(legacy.Results))
		}

		if ub, err := s.Index.UnseenBound(bare); err != nil {
			t.Fatal(err)
		} else if ub != 0 {
			continue
		}
		zero++
		// Wedge the shard's one worker, then ask the zero-bound question.
		block := make(chan struct{})
		faults.Activate(engine.SiteEvaluate, faults.Fault{Block: block})
		wedged := make(chan struct{})
		go func() {
			defer close(wedged)
			post(context.Background(), i, `{"keywords":["shop","food"],"k":5,"eps":0.0005}`)
		}()
		for deadline := time.Now().Add(2 * time.Second); faults.Visits(engine.SiteEvaluate) == 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("the wedging request never reached the executor")
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		out := post(ctx, i, `{"keywords":["education"],"k":3,"eps":0.0005}`)
		cancel()
		if out.Shard != i || out.UB != 0 || out.Results != nil || out.Stats != (core.Stats{}) {
			t.Errorf("shard %d zero-bound answer %+v, want {shard %d, ub 0} and nothing else", i, out, i)
		}
		if n := faults.Visits(engine.SiteEvaluate); n != 1 {
			t.Errorf("shard %d: %d evaluations entered the executor, want the wedged one only", i, n)
		}
		close(block)
		<-wedged
		faults.Reset()
	}
	if zero == 0 {
		t.Error("fixture has no zero-bound shard")
	}
}

// TestServerMountsPprof: a shard serves the profiler routes its CPU is
// attributed through.
func TestServerMountsPprof(t *testing.T) {
	w := testWorld(t, 2, 1)
	servers, _ := startShards(t, w, remote.ServerConfig{})
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline", "/debug/pprof/symbol"} {
		resp, err := http.Get(servers[0].URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: status %d, want 200", path, resp.StatusCode)
		}
	}
}

// TestServerValidation: method, body and query validation must answer
// the documented 4xx statuses.
func TestServerValidation(t *testing.T) {
	w := testWorld(t, 2, 1)
	servers, _ := startShards(t, w, remote.ServerConfig{MaxBodyBytes: 256})
	url := servers[0].URL

	if resp, err := http.Get(url + "/shard/query"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET: status %d, want 405", resp.StatusCode)
		}
	}

	resp, err := http.Post(url+"/shard/query", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad JSON: status %d, want 400", resp.StatusCode)
	}

	huge := fmt.Sprintf(`{"keywords":[%q],"k":5,"eps":0.0005}`, strings.Repeat("x", 512))
	resp, err = http.Post(url+"/shard/query", "application/json", strings.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status %d, want 413", resp.StatusCode)
	}

	r2, body := postQuery(t, url, remote.QueryRequest{Keywords: []string{"shop"}, K: 0, Epsilon: 0.0005})
	if r2.StatusCode != http.StatusBadRequest {
		t.Errorf("k=0: status %d (%s), want 400", r2.StatusCode, body)
	}

	r3, body := postQuery(t, url, remote.QueryRequest{Keywords: []string{"shop"}, K: 5, Epsilon: w.Halo * 2})
	if r3.StatusCode != http.StatusBadRequest {
		t.Errorf("eps>halo: status %d (%s), want 400", r3.StatusCode, body)
	}
}

// TestServerHealthReady: /healthz is pure liveness; /readyz follows the
// drain flag — the signal half-open breaker probes key off.
func TestServerHealthReady(t *testing.T) {
	w := testWorld(t, 2, 1)
	srv := remote.NewServer(shardData(w, 0), remote.ServerConfig{})
	hs := httptest.NewServer(srv)
	defer hs.Close()

	check := func(path string, want int) {
		t.Helper()
		resp, err := http.Get(hs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("%s: status %d, want %d", path, resp.StatusCode, want)
		}
	}
	check("/healthz", http.StatusOK)
	check("/readyz", http.StatusOK)
	srv.SetDraining(true)
	check("/healthz", http.StatusOK) // draining is still alive
	check("/readyz", http.StatusServiceUnavailable)
	srv.SetDraining(false)
	check("/readyz", http.StatusOK)

	// No index loaded: ready must fail even without draining.
	empty := httptest.NewServer(remote.NewServer(remote.ShardData{}, remote.ServerConfig{}))
	defer empty.Close()
	resp, err := http.Get(empty.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz without index: status %d, want 503", resp.StatusCode)
	}
}

// TestServerMeta: /shard/meta must describe the shard and partition.
func TestServerMeta(t *testing.T) {
	w := testWorld(t, 4, 1)
	servers, _ := startShards(t, w, remote.ServerConfig{})
	for i, s := range w.Shards {
		resp, err := http.Get(servers[i].URL + "/shard/meta")
		if err != nil {
			t.Fatal(err)
		}
		var m remote.Meta
		err = json.NewDecoder(resp.Body).Decode(&m)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if m.Shard != i || m.Shards != len(w.Shards) || m.TileX != s.TileX || m.TileY != s.TileY ||
			m.Halo != w.Halo || m.Streets != len(s.Streets) || m.Segments != len(s.Segments) ||
			m.POIs != s.POIs.Len() || m.POIs == 0 {
			t.Errorf("shard %d meta %+v does not match world", i, m)
		}
	}
}

// TestServerInjected5xx: an Err fault at remote.serve must surface as a
// 500 — the chaos mode standing in for a shard whose process is broken
// but whose socket still answers.
func TestServerInjected5xx(t *testing.T) {
	defer faults.Reset()
	w := testWorld(t, 2, 1)
	servers, _ := startShards(t, w, remote.ServerConfig{})
	faults.Activate(remote.SiteServe, faults.Fault{Err: errors.New("injected shard fault"), Times: 1})
	q := testQuery()
	resp, body := postQuery(t, servers[0].URL, remote.QueryRequest{Keywords: q.Keywords, K: q.K, Epsilon: q.Epsilon})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d (%s), want 500", resp.StatusCode, body)
	}
	// The fault window is exhausted: the next query succeeds.
	resp, body = postQuery(t, servers[0].URL, remote.QueryRequest{Keywords: q.Keywords, K: q.K, Epsilon: q.Epsilon})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("after fault window: status %d (%s), want 200", resp.StatusCode, body)
	}
}
