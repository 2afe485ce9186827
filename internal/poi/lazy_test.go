package poi_test

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	soi "repro"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/poi"
	"repro/internal/remote"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/snapshot"
	"repro/internal/vocab"
)

// TestLazyCorpusConcurrentFirstTouch: eight goroutines make the first
// All, Get and CountRelevant calls on one corpus a snapshot decode left
// undecoded. Every answer equals the corpus the snapshot was encoded
// from, and the records decode once.
func TestLazyCorpusConcurrentFirstTouch(t *testing.T) {
	ds, err := datagen.Generate(datagen.Small(7))
	if err != nil {
		t.Fatal(err)
	}
	src := ds.WeightedPOIs()
	ix, err := core.NewIndex(ds.Network, src, core.IndexConfig{CellSize: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := snapshot.Encode(&snapshot.Snapshot{Net: ds.Network, POIs: src, Photos: ds.Photos, Slab: ix.Slab()})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := snapshot.Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	lazy := snap.POIs
	if lazy.Decoded() {
		t.Fatal("Decode decoded the POI section")
	}
	if lazy.Len() != src.Len() || lazy.Dict().Len() != src.Dict().Len() || lazy.Decoded() {
		t.Fatalf("Len %d, Dict %d (decoded %v); want %d and %d undecoded",
			lazy.Len(), lazy.Dict().Len(), lazy.Decoded(), src.Len(), src.Dict().Len())
	}
	var decodes atomic.Int32
	poi.OnDecode(t, func(*poi.Corpus) { decodes.Add(1) })

	queries := []vocab.Set{src.Dict().InternAll([]string{"shop"}), src.Dict().InternAll([]string{"food", "museum"})}
	want := src.All()
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Each goroutine opens with a different call, so all three
			// race to be the first.
			calls := []func(){
				func() {
					if !reflect.DeepEqual(lazy.All(), want) {
						errs <- "All differs from the encoded corpus"
					}
				},
				func() {
					for id := g; id < len(want); id += 97 {
						if !reflect.DeepEqual(*lazy.Get(poi.ID(id)), want[id]) {
							errs <- "Get differs from the encoded corpus"
							return
						}
					}
				},
				func() {
					for _, q := range queries {
						if got, w := lazy.CountRelevant(q), src.CountRelevant(q); got != w {
							errs <- "CountRelevant differs from the encoded corpus"
						}
					}
				},
			}
			for i := range calls {
				calls[(g+i)%len(calls)]()
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if n := decodes.Load(); n != 1 {
		t.Fatalf("the corpus decoded %d times, want once", n)
	}
	if &lazy.All()[0] != lazy.Get(0) {
		t.Fatal("All and Get read different arrays")
	}
}

// TestServingLeavesCorpusUndecoded drives every query endpoint, /api/stats,
// /metrics and /healthz of a snapshot-opened engine, served directly and
// as a -tenants tenant, and /shard/query and /shard/meta of a shard
// server over a LoadShard-ed shard. Serving reads POIs only through the
// slab, the count and the dictionary, so no request may decode a POI
// corpus.
func TestServingLeavesCorpusUndecoded(t *testing.T) {
	ds, err := datagen.Generate(datagen.Small(1))
	if err != nil {
		t.Fatal(err)
	}
	src, err := soi.NewEngineFromCorpora(ds.Network, ds.POIs, ds.Photos, soi.Config{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "small.soi")
	if err := src.WriteSnapshot(path); err != nil {
		t.Fatal(err)
	}
	top, err := src.TopStreets(soi.Query{Keywords: []string{"shop"}, K: 1, Epsilon: 0.0005})
	if err != nil || len(top) == 0 {
		t.Fatalf("no street for the probe query: %v", err)
	}
	var decoded atomic.Bool
	poi.OnDecode(t, func(*poi.Corpus) { decoded.Store(true) })

	requests := []struct{ method, path, body string }{
		{http.MethodGet, "/api/streets?keywords=shop,food&k=5&eps=0.0005", ""},
		{http.MethodGet, "/api/streets?keywords=shop,food&k=5&eps=0.0005&trace=1", ""},
		{http.MethodGet, "/api/streets?keywords=zeppelin&k=3&eps=0.0012&trace=1", ""},
		{http.MethodPost, "/api/streets/batch?trace=1", `{"queries":[{"keywords":["shop"],"k":2,"eps":0.0005},{"keywords":["shop"],"k":7,"eps":0.0005},{"keywords":["food","zeppelin"],"k":3,"eps":0.0002}]}`},
		{http.MethodGet, "/api/describe?street=" + url.QueryEscape(top[0].Name), ""},
		{http.MethodGet, "/api/tour?keywords=shop&k=5&eps=0.0005&budget=0.05", ""},
		{http.MethodPost, "/api/routes/topk", `{"src":[0.0,0.0036],"dst":[0.02,0.0036],"keywords":["shop"],"k":3,"budget":0.024,"alpha":0.1}`},
		{http.MethodPost, "/api/trajectories/soi", `{"traces":[[[0.044,0.0372],[0.048,0.0372],[0.052,0.0372]]],"keywords":["shop"],"k":5,"radius":0.001}`},
		{http.MethodGet, "/api/stats", ""},
		{http.MethodGet, "/metrics", ""},
		{http.MethodGet, "/healthz", ""},
	}
	serve := func(label string, h http.Handler, method, path, body string) {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: %s %s: status %d: %s", label, method, path, rec.Code, rec.Body)
		}
		if decoded.Load() {
			t.Fatalf("%s: %s %s decoded a POI corpus", label, method, path)
		}
	}

	eng, err := soi.NewEngineFromSnapshot(path, soi.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	if decoded.Load() {
		t.Fatal("NewEngineFromSnapshot decoded the POI corpus")
	}
	direct := server.New(eng)
	for _, rq := range requests {
		serve("engine", direct, rq.method, rq.path, rq.body)
	}

	ts, err := server.NewTenantServer(server.TenantConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ts.Close() })
	for _, rq := range requests {
		p := rq.path
		switch {
		case strings.HasPrefix(p, "/api/"):
			p = "/api/small/" + strings.TrimPrefix(p, "/api/")
		case p == "/metrics":
			p = "/api/small/metrics"
		}
		serve("tenant", ts, rq.method, p, rq.body)
	}

	w, err := shard.Partition(ds.Network, ds.POIs, shard.Config{Tiles: 4, Halo: 0.0012, CellSize: soi.DefaultCellSize})
	if err != nil {
		t.Fatal(err)
	}
	manifest := filepath.Join(t.TempDir(), "small.json")
	if err := shard.WriteSnapshots(manifest, w); err != nil {
		t.Fatal(err)
	}
	sh, m, closer, err := shard.LoadShard(manifest, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { closer.Close() })
	if decoded.Load() {
		t.Fatal("LoadShard decoded the POI corpus")
	}
	shardSrv := remote.NewServer(remote.ShardData{
		ShardID: sh.ID, Shards: len(m.Shards), TileX: sh.TileX, TileY: sh.TileY,
		Halo: m.Halo, CellSize: m.CellSize, Index: sh.Index, Streets: sh.Streets, Segments: sh.Segments,
	}, remote.ServerConfig{})
	for _, body := range []string{`{"keywords":["shop","food"],"k":5,"eps":0.0005}`, `{"keywords":["zeppelin"],"k":3,"eps":0.0012}`} {
		serve("shard", shardSrv, http.MethodPost, "/shard/query", body)
	}
	serve("shard", shardSrv, http.MethodGet, "/shard/meta", "")
	if sh.POIs.Decoded() {
		t.Fatal("the shard's corpus decoded")
	}

	// The detector is live: reading the records decodes.
	sh.POIs.All()
	if !sh.POIs.Decoded() || !decoded.Load() {
		t.Fatal("All left the shard's corpus undecoded, or the decode went unseen")
	}
}
