package shard

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/remote"
	"repro/internal/stats"
)

// chaosMode is a per-shard switchable failure injected in front of a
// real shard server.
type chaosMode int32

const (
	chaosPass  chaosMode = iota
	chaos5xx             // answer 500 without evaluating
	chaosWedge           // swallow the request until the client gives up
)

// chaosProxy wraps one shard's handler with a runtime-switchable fault.
type chaosProxy struct {
	mode atomic.Int32
	next http.Handler
}

func (p *chaosProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch chaosMode(p.mode.Load()) {
	case chaos5xx:
		if r.URL.Path == "/shard/query" {
			http.Error(w, "injected 5xx", http.StatusInternalServerError)
			return
		}
	case chaosWedge:
		// Wedge every endpoint — including /readyz, so breaker probes see
		// the wedge too. Drain the body first or the server never notices
		// the client hanging up.
		_, _ = io.Copy(io.Discard, r.Body)
		<-r.Context().Done()
		return
	}
	p.next.ServeHTTP(w, r)
}

// remoteHarness is a full cross-process-shaped serving stack in one
// test process: every shard behind a real HTTP server and a chaos
// proxy, one fault-tolerant client, one remote coordinator.
type remoteHarness struct {
	w       *World
	proxies []*chaosProxy
	servers []*httptest.Server
	rec     *stats.Recorder
	client  *remote.Client
	coord   *RemoteCoordinator
}

func newRemoteHarness(t *testing.T, tiles int, cfg remote.Config) *remoteHarness {
	t.Helper()
	net, pois := tinyWorld(t, 7)
	w, err := Partition(net, pois, Config{Tiles: tiles, Halo: 0.0012, CellSize: 0.0005})
	if err != nil {
		t.Fatal(err)
	}
	h := &remoteHarness{w: w, rec: stats.NewRecorder()}
	cfg.Addrs = make([][]string, len(w.Shards))
	for i, s := range w.Shards {
		p := &chaosProxy{next: remote.NewServer(remote.ShardData{
			ShardID: s.ID, Shards: len(w.Shards), TileX: s.TileX, TileY: s.TileY,
			Halo: w.Halo, CellSize: w.CellSize,
			Index: s.Index, Streets: s.Streets, Segments: s.Segments,
		}, remote.ServerConfig{})}
		hs := httptest.NewServer(p)
		t.Cleanup(hs.Close)
		h.proxies = append(h.proxies, p)
		h.servers = append(h.servers, hs)
		cfg.Addrs[i] = []string{hs.URL}
	}
	if cfg.Recorder == nil {
		cfg.Recorder = h.rec
	}
	h.client, err = remote.NewClient(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.client.Close)
	h.coord = NewRemoteCoordinator(h.client, w.Halo)
	return h
}

// fastRemote is a client config with millisecond-scale failure
// resolution for chaos tests.
func fastRemote() remote.Config {
	return remote.Config{
		AttemptTimeout: 300 * time.Millisecond,
		MaxAttempts:    2,
		BackoffBase:    time.Millisecond,
		BackoffMax:     4 * time.Millisecond,
		Breaker:        remote.BreakerConfig{Failures: -1},
	}
}

// assertExactOrDegraded is the chaos invariant: the answer either is
// bit-identical to the oracle and untagged, or is tagged degraded and
// exactly the live shards' merged top-k. It also checks the counter
// partition. dead lists the shards the failure made unreachable.
func assertExactOrDegraded(t *testing.T, h *remoteHarness, q core.Query, oracle []core.StreetResult, got []core.StreetResult, g RemoteGather, dead map[int]bool) {
	t.Helper()
	if n := g.ShardsEvaluated + g.ShardsPruned + len(g.MissingShards); n != g.ShardsTotal {
		t.Errorf("counters do not partition: eval %d + pruned %d + missing %d != total %d",
			g.ShardsEvaluated, g.ShardsPruned, len(g.MissingShards), g.ShardsTotal)
	}
	if !g.Degraded {
		if len(g.MissingShards) != 0 {
			t.Errorf("untagged answer lists missing shards %v", g.MissingShards)
		}
		if d := diffResults(got, oracle); d != "" {
			t.Errorf("untagged answer diverged from oracle: %s", d)
		}
		return
	}
	for _, id := range g.MissingShards {
		if !dead[id] {
			t.Errorf("shard %d reported missing but was healthy", id)
		}
	}
	liveMerge := map[int]bool{}
	for _, id := range g.MissingShards {
		liveMerge[id] = true
	}
	want := chaosMergeLive(t, h.w, q, liveMerge)
	if d := diffResults(got, want); d != "" {
		t.Errorf("degraded answer is not the exact live merge: %s", d)
	}
}

// chaosMergeLive mirrors mergeLive for the harness world.
func chaosMergeLive(t *testing.T, w *World, q core.Query, dead map[int]bool) []core.StreetResult {
	t.Helper()
	return mergeLive(t, w, q, dead)
}

// TestRemoteChaosKillEachShard: for every shard, hard-kill its server
// (connection refused) and assert the invariant under both partial
// settings — plus full recovery once the shard returns.
func TestRemoteChaosKillEachShard(t *testing.T) {
	q := chaosQuery()
	h := newRemoteHarness(t, 4, fastRemote())
	oracle, _, err := h.coord.TopK(context.Background(), q, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := range h.w.Shards {
		h.servers[i].CloseClientConnections()
		h.servers[i].Listener.Close() // refuse new connections, keep the URL

		before := runtime.NumGoroutine()
		got, g, err := h.coord.TopK(context.Background(), q, true)
		if err != nil {
			t.Fatalf("shard %d killed: partial call failed: %v", i, err)
		}
		if !g.Degraded {
			t.Fatalf("shard %d killed but answer untagged", i)
		}
		assertExactOrDegraded(t, h, q, oracle, got, g, map[int]bool{i: true})

		if _, _, err := h.coord.TopK(context.Background(), q, false); !errors.Is(err, ErrShardsUnavailable) {
			t.Errorf("shard %d killed without partial: err = %v, want ErrShardsUnavailable", i, err)
		}
		checkNoLeaks(t, before)

		// Resurrect the shard on the same address for the next round.
		h.servers[i] = httptest.NewServer(h.proxies[i])
		t.Cleanup(h.servers[i].Close)
		// The address changed (fresh ephemeral port), so rebuild the
		// client table by swapping the harness to the new URL set.
		cfg := fastRemote()
		cfg.Recorder = h.rec
		cfg.Addrs = make([][]string, len(h.servers))
		for j, hs := range h.servers {
			cfg.Addrs[j] = []string{hs.URL}
		}
		h.client, err = remote.NewClient(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(h.client.Close)
		h.coord = NewRemoteCoordinator(h.client, h.w.Halo)

		got, g, err = h.coord.TopK(context.Background(), q, true)
		if err != nil {
			t.Fatalf("shard %d resurrected: %v", i, err)
		}
		if g.Degraded {
			t.Fatalf("shard %d resurrected but still degraded: %+v", i, g)
		}
		if d := diffResults(got, oracle); d != "" {
			t.Errorf("shard %d after recovery: %s", i, d)
		}
	}
}

// TestRemoteChaosInjected5xxEachShard: a shard answering 500 on every
// query must degrade exactly like a dead one — and recover instantly
// when the fault clears.
func TestRemoteChaosInjected5xxEachShard(t *testing.T) {
	q := chaosQuery()
	h := newRemoteHarness(t, 4, fastRemote())
	oracle, _, err := h.coord.TopK(context.Background(), q, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := range h.w.Shards {
		h.proxies[i].mode.Store(int32(chaos5xx))
		got, g, err := h.coord.TopK(context.Background(), q, true)
		if err != nil {
			t.Fatalf("shard %d 5xx: %v", i, err)
		}
		if !g.Degraded {
			t.Fatalf("shard %d answering 500 but answer untagged", i)
		}
		assertExactOrDegraded(t, h, q, oracle, got, g, map[int]bool{i: true})
		h.proxies[i].mode.Store(int32(chaosPass))

		got, g, err = h.coord.TopK(context.Background(), q, true)
		if err != nil {
			t.Fatalf("shard %d healed: %v", i, err)
		}
		if g.Degraded {
			t.Fatalf("shard %d healed but still degraded", i)
		}
		if d := diffResults(got, oracle); d != "" {
			t.Errorf("shard %d after heal: %s", i, d)
		}
	}
}

// TestRemoteChaosWedgedShard: a shard that accepts connections and then
// never answers must be bounded by the attempt timeout and degrade —
// the coordinator may never hang on a wedged worker.
func TestRemoteChaosWedgedShard(t *testing.T) {
	q := chaosQuery()
	h := newRemoteHarness(t, 4, fastRemote())
	oracle, _, err := h.coord.TopK(context.Background(), q, false)
	if err != nil {
		t.Fatal(err)
	}
	h.proxies[1].mode.Store(int32(chaosWedge))
	start := time.Now()
	got, g, err := h.coord.TopK(context.Background(), q, true)
	if err != nil {
		t.Fatalf("wedged shard: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("wedged shard stalled the call for %v", elapsed)
	}
	if !g.Degraded {
		t.Fatal("wedged shard but answer untagged")
	}
	assertExactOrDegraded(t, h, q, oracle, got, g, map[int]bool{1: true})
	h.proxies[1].mode.Store(int32(chaosPass))
}

// TestRemoteChaosDropWithRetryStaysExact: transient drops on the
// network legs that resolve within the retry budget must leave the
// answer bit-identical and untagged — retries are invisible to
// correctness.
func TestRemoteChaosDropWithRetryStaysExact(t *testing.T) {
	defer faults.Reset()
	q := chaosQuery()
	cfg := fastRemote()
	cfg.MaxAttempts = 3
	h := newRemoteHarness(t, 4, cfg)
	oracle, _, err := h.coord.TopK(context.Background(), q, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, site := range []string{remote.SiteDial, remote.SiteSend, remote.SiteRecv} {
		faults.Reset()
		faults.Activate(site, faults.Fault{Err: errors.New("injected drop"), Times: 2})
		got, g, err := h.coord.TopK(context.Background(), q, false)
		if err != nil {
			t.Fatalf("site %s: drops within the retry budget failed the call: %v", site, err)
		}
		if g.Degraded {
			t.Errorf("site %s: retried drops degraded the answer", site)
		}
		if d := diffResults(got, oracle); d != "" {
			t.Errorf("site %s: retried drops changed the answer: %s", site, d)
		}
	}
	faults.Reset()
	if h.rec.Remote.Retries.Load() == 0 {
		t.Error("no retries recorded despite injected drops")
	}
}

// TestRemoteChaosLatencyStaysExact: injected latency on the network
// legs changes timing, never answers.
func TestRemoteChaosLatencyStaysExact(t *testing.T) {
	defer faults.Reset()
	q := chaosQuery()
	h := newRemoteHarness(t, 4, fastRemote())
	oracle, _, err := h.coord.TopK(context.Background(), q, false)
	if err != nil {
		t.Fatal(err)
	}
	faults.Activate(remote.SiteSend, faults.Fault{Delay: 30 * time.Millisecond, Times: 3})
	got, g, err := h.coord.TopK(context.Background(), q, false)
	if err != nil {
		t.Fatal(err)
	}
	if g.Degraded {
		t.Error("latency degraded the answer")
	}
	if d := diffResults(got, oracle); d != "" {
		t.Errorf("latency changed the answer: %s", d)
	}
}

// TestRemoteChaosBreakerShieldsDeadShard: with breakers enabled, a dead
// shard's repeated failures trip its breaker, and subsequent degraded
// calls short-circuit instead of re-dialling a corpse.
func TestRemoteChaosBreakerShieldsDeadShard(t *testing.T) {
	q := chaosQuery()
	cfg := fastRemote()
	cfg.Breaker = remote.BreakerConfig{Failures: 2, OpenFor: 10 * time.Second}
	h := newRemoteHarness(t, 4, cfg)
	if _, _, err := h.coord.TopK(context.Background(), q, false); err != nil {
		t.Fatal(err)
	}
	h.servers[0].CloseClientConnections()
	h.servers[0].Listener.Close()

	// Drive calls until the breaker opens, then confirm short circuits.
	for i := 0; i < 3; i++ {
		if _, _, err := h.coord.TopK(context.Background(), q, true); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if h.rec.Remote.BreakerOpens.Load() == 0 {
		t.Fatal("dead shard never tripped its breaker")
	}
	sc := h.rec.Remote.BreakerShortCircuits.Load()
	if _, _, err := h.coord.TopK(context.Background(), q, true); err != nil {
		t.Fatal(err)
	}
	if h.rec.Remote.BreakerShortCircuits.Load() <= sc {
		t.Error("open breaker did not short-circuit the dead shard")
	}
}
