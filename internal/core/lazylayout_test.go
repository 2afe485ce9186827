package core_test

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/network"
	"repro/internal/oracle"
	"repro/internal/photo"
	"repro/internal/remote"
	"repro/internal/shard"
	"repro/internal/snapshot"
	"repro/internal/stats"
)

// residencyCell is the serving cell size (soi.DefaultCellSize).
const residencyCell = 0.0005

// writeBerlinSnapshot generates a small Berlin, indexes it and writes the
// snapshot soibuild would; it returns the snapshot path and,
// for the shard leg, a manifest path over a 4-tile partition of the same
// world.
func writeBerlinSnapshot(tb testing.TB, scale float64) (snapPath, manifestPath string) {
	tb.Helper()
	ds, err := datagen.Generate(datagen.Scale(datagen.Berlin(), scale))
	if err != nil {
		tb.Fatal(err)
	}
	built, err := core.NewIndex(ds.Network, ds.POIs, core.IndexConfig{CellSize: residencyCell})
	if err != nil {
		tb.Fatal(err)
	}
	dir := tb.TempDir()
	snapPath = filepath.Join(dir, "berlin.soi")
	if err := snapshot.WriteFile(snapPath, &snapshot.Snapshot{
		Net: ds.Network, POIs: ds.POIs, Photos: ds.Photos, Slab: built.SlabIndex().Slab(),
	}); err != nil {
		tb.Fatal(err)
	}
	sw, err := shard.Partition(ds.Network, ds.POIs, shard.Config{Tiles: 4, Halo: 0.0012, CellSize: residencyCell})
	if err != nil {
		tb.Fatal(err)
	}
	manifestPath = filepath.Join(dir, "berlin.manifest.json")
	if err := shard.WriteSnapshots(manifestPath, sw); err != nil {
		tb.Fatal(err)
	}
	return snapPath, manifestPath
}

// liveHeap is the heap in use after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestSnapshotServingNeverBuildsMapLayout is the residency gate of the
// slab-only serving path. A snapshot-opened index is driven through every
// core entry point the serving stack reaches — the executor's single and
// batched k-SOI (what /api/streets and /api/streets/batch run), start-up
// Warm, SegmentInterest (routes and trajectory-SOI fold through it), the
// static bound — and every shard of a partition opened the way soishard
// opens it answers bound-only and full /shard/query through
// remote.Server. None of it may materialise the map layout. The second
// half keeps the saving from eroding silently: forcing the layout on the
// same index must grow the live heap by at least 40 %; if the slab-only
// index ever holds most of what the layout holds, this fails. (The HTTP
// handlers over a snapshot engine are pinned from the outside, through
// the core.map_layout_builds counter, in internal/server.)
func TestSnapshotServingNeverBuildsMapLayout(t *testing.T) {
	snapPath, manifestPath := writeBerlinSnapshot(t, 0.02)
	base := liveHeap()

	snap, mapping, err := snapshot.Open(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	defer mapping.Close()
	ix, err := core.NewIndexFromSlab(snap.Net, snap.POIs, snap.Slab)
	if err != nil {
		t.Fatal(err)
	}
	rec := stats.NewRecorder()
	ix.SetRecorder(rec)
	if ix.MapLayoutBuilt() {
		t.Fatal("NewIndexFromSlab materialised the map layout")
	}
	ix.Warm(residencyCell)

	exec := engine.New(ix, engine.Config{Recorder: rec})
	queries := []core.Query{
		{Keywords: []string{"shop"}, K: 5, Epsilon: 0.0005},
		{Keywords: []string{"shop", "food"}, K: 10, Epsilon: 0.0008},
		{Keywords: []string{"museum", "park", "cafe"}, K: 3, Epsilon: 0.0002},
	}
	var streets int
	for _, q := range queries {
		res := exec.DoCtx(context.Background(), q)
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		streets += len(res.Streets)
		if _, err := ix.UnseenBound(q); err != nil {
			t.Fatal(err)
		}
		query, err := ix.SlabIndex().Resolve(q)
		if err != nil {
			t.Fatal(err)
		}
		for sid := 0; sid < snap.Net.NumSegments(); sid += 97 {
			ix.SegmentInterest(network.SegmentID(sid), query, q.Epsilon)
		}
	}
	for _, res := range exec.Batch(append(queries, queries[0])) {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	if streets == 0 {
		t.Fatal("no query returned a street; the queries did no work")
	}
	if ix.MapLayoutBuilt() {
		t.Error("serving a snapshot-opened index materialised the map layout")
	}
	if n := rec.Snapshot().Core.MapLayoutBuilds; n != 0 {
		t.Errorf("core.map_layout_builds = %d after serving, want 0", n)
	}

	m, err := shard.LoadManifest(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	var answered int
	for id := range m.Shards {
		sh, _, closer, err := shard.LoadShard(manifestPath, id)
		if err != nil {
			t.Fatal(err)
		}
		defer closer.Close()
		srv := remote.NewServer(remote.ShardData{
			ShardID: sh.ID, Shards: len(m.Shards), Halo: m.Halo, CellSize: m.CellSize,
			Index: sh.Index, Streets: sh.Streets, Segments: sh.Segments,
		}, remote.ServerConfig{})
		for _, boundOnly := range []bool{true, false} {
			body, err := json.Marshal(remote.QueryRequest{Keywords: []string{"shop", "food"}, K: 3, Epsilon: 0.0005, BoundOnly: boundOnly})
			if err != nil {
				t.Fatal(err)
			}
			w := httptest.NewRecorder()
			srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/shard/query", bytes.NewReader(body)))
			if w.Code != http.StatusOK {
				t.Fatalf("shard %d bound_only=%t: status %d: %s", id, boundOnly, w.Code, w.Body)
			}
			var resp remote.QueryResponse
			if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
				t.Fatal(err)
			}
			answered += len(resp.Results)
		}
		if sh.Index.MapLayoutBuilt() {
			t.Errorf("shard %d: serving through remote.Server materialised the map layout", id)
		}
	}
	if answered == 0 {
		t.Fatal("no shard returned a street; the shard queries did no work")
	}

	// Self-relative heap check, on the single index only: drop what the
	// shard leg left behind, measure, force the layout, measure again.
	exec = nil
	slabOnly := liveHeap() - base
	ix.Grid()
	both := liveHeap() - base
	if !ix.MapLayoutBuilt() || rec.Snapshot().Core.MapLayoutBuilds != 1 {
		t.Fatalf("Grid() did not materialise the layout exactly once (built=%t, counter=%d)",
			ix.MapLayoutBuilt(), rec.Snapshot().Core.MapLayoutBuilds)
	}
	t.Logf("live heap over the snapshot: slab only %d KB, with map layout %d KB (×%.2f)",
		slabOnly>>10, both>>10, float64(both)/float64(slabOnly))
	if float64(both) < 1.4*float64(slabOnly) {
		t.Errorf("materialising the map layout grew the live heap %d → %d KB (×%.2f), want ≥ ×1.40: the slab-only index holds a second layout's worth of memory",
			slabOnly>>10, both>>10, float64(both)/float64(slabOnly))
	}
	runtime.KeepAlive(ix)
}

// reloaded round-trips an index through the snapshot encoding and opens
// the decoded slab, sharing no memory with the source.
func reloaded(t *testing.T, compact *core.Index, photos *photo.Corpus) *core.Index {
	t.Helper()
	blob, err := snapshot.Encode(&snapshot.Snapshot{
		Net: compact.Network(), POIs: compact.POIs(), Photos: photos, Slab: compact.SlabIndex().Slab(),
	})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := snapshot.Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := core.NewIndexFromSlab(snap.Net, snap.POIs, snap.Slab)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// TestLazyLayoutConcurrentFirstTouch: over the oracle world matrix, a
// slab-opened index whose map layout is first touched by eight goroutines
// at once — Baseline, Grid and SegmentCells, beside both access schedules
// and the static bound, which must not touch it — builds the layout
// exactly once, answers every query Float64bits-identically to the
// brute-force oracle, and hands out the grid and Cε(ℓ) lists a built
// index of the same corpus does. Run under -race in CI.
func TestLazyLayoutConcurrentFirstTouch(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		for _, cfg := range oracle.MatrixConfigs(seed, false) {
			w, err := cfg.BuildWorld()
			if err != nil {
				t.Fatal(err)
			}
			net, pois, photos, _, err := w.Build()
			if err != nil {
				t.Fatal(err)
			}
			built, err := core.NewIndex(net, pois, core.IndexConfig{CellSize: boundCell})
			if err != nil {
				t.Fatal(err)
			}
			want := make([][]core.StreetResult, len(cfg.Queries))
			wantBound := make([]float64, len(cfg.Queries))
			for i, q := range cfg.Queries {
				if want[i], err = oracle.TopK(net, pois, q); err != nil {
					t.Fatal(err)
				}
				wantBound[i] = core.BruteBound(built, q)
			}
			lazy := reloaded(t, built, photos)
			rec := stats.NewRecorder()
			lazy.SetRecorder(rec)
			if lazy.MapLayoutBuilt() {
				t.Fatalf("%s: layout built before first touch", cfg.Label())
			}
			start := make(chan struct{})
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					<-start
					qi := g % len(cfg.Queries)
					q := cfg.Queries[qi]
					switch g % 5 {
					case 0:
						got, _, err := lazy.Baseline(q)
						if err != nil || !core.BitEqualResults(got, want[qi]) {
							t.Errorf("%s Baseline %v: %v (%v) != oracle %v", cfg.Label(), q, got, err, want[qi])
						}
					case 1:
						got, _, err := lazy.SOIWithStrategy(q, core.RoundRobin)
						if err != nil || !core.BitEqualResults(got, want[qi]) {
							t.Errorf("%s RoundRobin %v: %v (%v) != oracle %v", cfg.Label(), q, got, err, want[qi])
						}
					case 2:
						a, b := built.Grid(), lazy.Grid()
						if b.NumCells() != a.NumCells() || !reflect.DeepEqual(b.NonEmptyCells(), a.NonEmptyCells()) || b.Bounds() != a.Bounds() {
							t.Errorf("%s: lazily built grid differs from the built index's", cfg.Label())
						}
					case 3:
						if !reflect.DeepEqual(lazy.SegmentCells(q.Epsilon), built.SegmentCells(q.Epsilon)) {
							t.Errorf("%s eps=%g: SegmentCells differ", cfg.Label(), q.Epsilon)
						}
					case 4:
						got, err := lazy.UnseenBound(q)
						if err != nil || math.Float64bits(got) != math.Float64bits(wantBound[qi]) {
							t.Errorf("%s UnseenBound %v: %v (%v) != brute force %v", cfg.Label(), q, got, err, wantBound[qi])
						}
						res, _, err := lazy.SOI(q)
						if err != nil || !core.BitEqualResults(res, want[qi]) {
							t.Errorf("%s SOI %v: %v (%v) != oracle %v", cfg.Label(), q, res, err, want[qi])
						}
					}
				}(g)
			}
			close(start)
			wg.Wait()
			if n := rec.Snapshot().Core.MapLayoutBuilds; n != 1 || !lazy.MapLayoutBuilt() {
				t.Fatalf("%s: layout built %d times (built=%t), want exactly once", cfg.Label(), n, lazy.MapLayoutBuilt())
			}
		}
	}
}

// BenchmarkOpenSnapshot times what a serving process does between exec
// and its first request: map the snapshot, open the index over the slab,
// warm the default ε-plan. It is the CI-visible form of setup_s; the map
// layout is not part of it.
func BenchmarkOpenSnapshot(b *testing.B) {
	snapPath, _ := writeBerlinSnapshot(b, 0.05)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap, mapping, err := snapshot.Open(snapPath)
		if err != nil {
			b.Fatal(err)
		}
		ix, err := core.NewIndexFromSlab(snap.Net, snap.POIs, snap.Slab)
		if err != nil {
			b.Fatal(err)
		}
		ix.Warm(residencyCell)
		if ix.MapLayoutBuilt() {
			b.Fatal("opening a snapshot materialised the map layout")
		}
		b.StopTimer()
		if err := mapping.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}
