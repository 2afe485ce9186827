package server

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/remote"
	"repro/internal/shard"
)

// drainable is what every server of the repo is: a handler whose
// readiness remote.Serve flips off when a drain begins.
type drainable interface {
	http.Handler
	SetDraining(bool)
}

// TestServerContract: the single-index server, the tenant router, the
// remote coordinator and the shard server answer the same operational
// endpoints the same way — liveness, readiness that follows the drain
// flag, a Prometheus exposition with the runtime gauges, and the
// profiler index.
func TestServerContract(t *testing.T) {
	coord, _ := newTestRemoteServer(t, nil)
	ds, err := datagen.Generate(datagen.Tiny(7))
	if err != nil {
		t.Fatal(err)
	}
	w, err := shard.Partition(ds.Network, ds.POIs, shard.Config{Tiles: 2, Halo: 0.0012, CellSize: 0.0005})
	if err != nil {
		t.Fatal(err)
	}
	s0 := w.Shards[0]
	shardSrv := remote.NewServer(remote.ShardData{
		ShardID: s0.ID, Shards: len(w.Shards), TileX: s0.TileX, TileY: s0.TileY,
		Halo: w.Halo, CellSize: w.CellSize, Index: s0.Index, Streets: s0.Streets, Segments: s0.Segments,
	}, remote.ServerConfig{})

	servers := map[string]drainable{
		"server":      testServer(t),
		"tenant":      newTestTenantServer(t, TenantConfig{Dir: writeTenantSnapshots(t, "alpha")}),
		"coordinator": coord,
		"shard":       shardSrv,
	}
	for name, s := range servers {
		t.Run(name, func(t *testing.T) {
			do := func(path string) (int, string) {
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
				return rec.Code, rec.Body.String()
			}
			for _, path := range []string{"/healthz", "/readyz", "/debug/pprof/"} {
				if code, body := do(path); code != http.StatusOK {
					t.Errorf("GET %s = %d %q, want 200", path, code, body)
				}
			}
			if code, body := do("/metrics"); code != http.StatusOK || !strings.Contains(body, "soi_runtime_goroutines") {
				t.Errorf("GET /metrics = %d without soi_runtime_goroutines:\n%s", code, body)
			}
			s.SetDraining(true)
			if code, body := do("/readyz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "draining") {
				t.Errorf("draining GET /readyz = %d %q, want 503 draining", code, body)
			}
			if code, _ := do("/healthz"); code != http.StatusOK {
				t.Errorf("draining GET /healthz = %d, want 200", code)
			}
			s.SetDraining(false)
			if code, body := do("/readyz"); code != http.StatusOK {
				t.Errorf("GET /readyz after the drain = %d %q, want 200", code, body)
			}
		})
	}
}

// TestRemoteServerMetricsKeepShardGauge: the coordinator's exposition
// keeps its own gauge beside the shared runtime ones.
func TestRemoteServerMetricsKeepShardGauge(t *testing.T) {
	coord, _ := newTestRemoteServer(t, nil)
	rec := httptest.NewRecorder()
	coord.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	for _, want := range []string{"soi_remote_shards 4\n", "soi_runtime_gomaxprocs ", "soi_remote_calls_total "} {
		if !strings.Contains(rec.Body.String(), want) {
			t.Errorf("coordinator /metrics missing %q", want)
		}
	}
}
