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
	"repro/internal/geo"
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

// writeBerlinSnapshot generates a small Berlin, indexes it compactly and
// writes the snapshot soibuild would; it returns the snapshot path and,
// for the shard leg, a manifest path over a 4-tile partition of the same
// world.
func writeBerlinSnapshot(tb testing.TB, scale float64) (snapPath, manifestPath string) {
	tb.Helper()
	ds, err := datagen.Generate(datagen.Scale(datagen.Berlin(), scale))
	if err != nil {
		tb.Fatal(err)
	}
	built, err := core.NewIndex(ds.Network, ds.POIs, core.IndexConfig{CellSize: residencyCell, Compact: true})
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
	sw, err := shard.Partition(ds.Network, ds.POIs, shard.Config{Tiles: 4, Halo: 0.0012, CellSize: residencyCell, Compact: true})
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

// reloaded round-trips a compact index through the snapshot encoding and
// opens the decoded slab, sharing no memory with the source.
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
// at once — Baseline, the round-robin strategy, Grid, SegmentCells and
// the static bound, with the slab evaluator attached and detached (the
// map legs of UnseenBound and cost-aware SOI) — builds the layout exactly
// once and answers Float64bits-identically to an eager NewIndex of the
// same corpus. Run under -race in CI.
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
			eager, err := core.NewIndex(net, pois, core.IndexConfig{CellSize: boundCell, Compact: true})
			if err != nil {
				t.Fatal(err)
			}
			for _, detach := range []bool{false, true} {
				lazy := reloaded(t, eager, photos)
				rec := stats.NewRecorder()
				lazy.SetRecorder(rec)
				if detach {
					lazy.DetachSlab()
				}
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
						q := cfg.Queries[g%len(cfg.Queries)]
						switch g % 5 {
						case 0:
							want, _, err1 := eager.Baseline(q)
							got, _, err2 := lazy.Baseline(q)
							if err1 != nil || err2 != nil || !core.BitEqualResults(got, want) {
								t.Errorf("%s detach=%t Baseline %v: %v (%v) != %v (%v)", cfg.Label(), detach, q, got, err2, want, err1)
							}
						case 1:
							want, _, err1 := eager.SOIWithStrategy(q, core.RoundRobin)
							got, _, err2 := lazy.SOIWithStrategy(q, core.RoundRobin)
							if err1 != nil || err2 != nil || !core.BitEqualResults(got, want) {
								t.Errorf("%s detach=%t RoundRobin %v: %v (%v) != %v (%v)", cfg.Label(), detach, q, got, err2, want, err1)
							}
						case 2:
							a, b := eager.Grid(), lazy.Grid()
							if b.NumCells() != a.NumCells() || !reflect.DeepEqual(b.NonEmptyCells(), a.NonEmptyCells()) || b.Bounds() != a.Bounds() {
								t.Errorf("%s detach=%t: lazily built grid differs from the eager one", cfg.Label(), detach)
							}
						case 3:
							if !reflect.DeepEqual(lazy.SegmentCells(q.Epsilon), eager.SegmentCells(q.Epsilon)) {
								t.Errorf("%s detach=%t eps=%g: SegmentCells differ", cfg.Label(), detach, q.Epsilon)
							}
						case 4:
							want, err1 := eager.UnseenBound(q)
							got, err2 := lazy.UnseenBound(q)
							if err1 != nil || err2 != nil || math.Float64bits(got) != math.Float64bits(want) {
								t.Errorf("%s detach=%t UnseenBound %v: %v (%v) != %v (%v)", cfg.Label(), detach, q, got, err2, want, err1)
							}
							res, _, err1 := eager.SOI(q)
							lres, _, err2 := lazy.SOI(q)
							if err1 != nil || err2 != nil || !core.BitEqualResults(lres, res) {
								t.Errorf("%s detach=%t SOI %v: %v (%v) != %v (%v)", cfg.Label(), detach, q, lres, err2, res, err1)
							}
						}
					}(g)
				}
				close(start)
				wg.Wait()
				if n := rec.Snapshot().Core.MapLayoutBuilds; n != 1 || !lazy.MapLayoutBuilt() {
					t.Fatalf("%s detach=%t: layout built %d times (built=%t), want exactly once", cfg.Label(), detach, n, lazy.MapLayoutBuilt())
				}
			}
		}
	}
}

// TestAddPOIOnUnmaterialisedSlabIndex: AddPOI on a slab-opened index
// that never needed its map layout builds it from the slab as it stood,
// applies the insert, drops the slab evaluator, and from then on answers
// exactly as an eagerly built index given the same inserts — on every
// evaluator, at every sweep ε, including inserts into empty cells (which
// drop the ε-memos) and keywords the slab has never seen.
func TestAddPOIOnUnmaterialisedSlabIndex(t *testing.T) {
	w, err := oracle.SeedConfig{Seed: 7, Density: 1, Weighted: true}.BuildWorld()
	if err != nil {
		t.Fatal(err)
	}
	build := func() (*core.Index, *photo.Corpus) {
		net, pois, photos, _, err := w.Build()
		if err != nil {
			t.Fatal(err)
		}
		ix, err := core.NewIndex(net, pois, core.IndexConfig{CellSize: boundCell, Compact: true})
		if err != nil {
			t.Fatal(err)
		}
		return ix, photos
	}
	eager, _ := build()
	twin, photos := build()
	lazy := reloaded(t, twin, photos)
	rec := stats.NewRecorder()
	lazy.SetRecorder(rec)
	// A served index: queries first, so the slab's plans and pools exist.
	for _, eps := range sweepEps {
		if _, _, err := lazy.SOI(core.Query{Keywords: []string{"shop"}, K: 3, Epsilon: eps}); err != nil {
			t.Fatal(err)
		}
	}
	if lazy.MapLayoutBuilt() {
		t.Fatal("cost-aware queries materialised the map layout")
	}

	b := eager.Grid().Bounds()
	at := func(fx, fy float64) geo.Point {
		return geo.Pt(b.MinX+fx*(b.MaxX-b.MinX), b.MinY+fy*(b.MaxY-b.MinY))
	}
	inserts := []struct {
		loc    geo.Point
		kws    []string
		weight float64
	}{
		{at(0.5, 0.5), []string{"shop"}, 1},
		{at(0.501, 0.5), []string{"shop", "food"}, 2.5},
		{at(0.03, 0.97), []string{"zeppelin"}, 1}, // a corner cell and a new keyword
		{at(0.97, 0.02), []string{"shop", "zeppelin"}, 0.75},
		{at(0.25, 0.75), []string{"museum"}, 4},
	}
	evaluators := map[string]func(*core.Index, core.Query) ([]core.StreetResult, core.Stats, error){
		"SOI": (*core.Index).SOI,
		"RoundRobin": func(ix *core.Index, q core.Query) ([]core.StreetResult, core.Stats, error) {
			return ix.SOIWithStrategy(q, core.RoundRobin)
		},
		"Baseline": (*core.Index).Baseline,
	}
	for i, in := range inserts {
		idE, errE := eager.AddPOI(in.loc, in.kws, in.weight)
		idL, errL := lazy.AddPOI(in.loc, in.kws, in.weight)
		if errE != nil || errL != nil || idE != idL {
			t.Fatalf("insert %d: eager (%v, %v), lazy (%v, %v)", i, idE, errE, idL, errL)
		}
		if i == 0 {
			if !lazy.MapLayoutBuilt() || lazy.SlabIndex() != nil || rec.Snapshot().Core.MapLayoutBuilds != 1 {
				t.Fatalf("first AddPOI: built=%t slab attached=%t counter=%d; want the layout built once and the slab detached",
					lazy.MapLayoutBuilt(), lazy.SlabIndex() != nil, rec.Snapshot().Core.MapLayoutBuilds)
			}
		}
		for _, eps := range sweepEps {
			for _, kws := range [][]string{{"shop"}, {"zeppelin"}, {"shop", "food", "zeppelin"}, {"museum", "park"}} {
				q := core.Query{Keywords: kws, K: 5, Epsilon: eps}
				for name, eval := range evaluators {
					want, _, err1 := eval(eager, q)
					got, _, err2 := eval(lazy, q)
					if err1 != nil || err2 != nil || !core.BitEqualResults(got, want) {
						t.Fatalf("after insert %d, %s %v: lazy %v (%v) != eager %v (%v)", i, name, q, got, err2, want, err1)
					}
				}
				if got, want := mustBound(t, lazy, q), mustBound(t, eager, q); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("after insert %d, UnseenBound %v: lazy %v != eager %v", i, q, got, want)
				}
			}
		}
	}
	if n := rec.Snapshot().Core.MapLayoutBuilds; n != 1 {
		t.Fatalf("layout built %d times across the inserts, want once", n)
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
