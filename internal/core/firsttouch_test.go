package core_test

import (
	"math"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/oracle"
	"repro/internal/photo"
	"repro/internal/snapshot"
)

// residencyCell is the serving cell size (soi.DefaultCellSize).
const residencyCell = 0.0005

// writeBerlinSnapshot generates a small Berlin, indexes it, writes the
// snapshot soibuild would and returns its path.
func writeBerlinSnapshot(tb testing.TB, scale float64) string {
	tb.Helper()
	ds, err := datagen.Generate(datagen.Scale(datagen.Berlin(), scale))
	if err != nil {
		tb.Fatal(err)
	}
	built, err := core.NewIndex(ds.Network, ds.POIs, core.IndexConfig{CellSize: residencyCell})
	if err != nil {
		tb.Fatal(err)
	}
	snapPath := filepath.Join(tb.TempDir(), "berlin.soi")
	if err := snapshot.WriteFile(snapPath, &snapshot.Snapshot{
		Net: ds.Network, POIs: ds.POIs, Photos: ds.Photos, Slab: built.Slab(),
	}); err != nil {
		tb.Fatal(err)
	}
	return snapPath
}

// reloaded round-trips an index through the snapshot encoding and opens
// the decoded slab, sharing no memory with the source.
func reloaded(t *testing.T, compact *core.Index, photos *photo.Corpus) *core.Index {
	t.Helper()
	blob, err := snapshot.Encode(&snapshot.Snapshot{
		Net: compact.Network(), POIs: compact.POIs(), Photos: photos, Slab: compact.Slab(),
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

// TestPlanConcurrentFirstTouch: over the oracle world matrix, a
// slab-opened index whose ε-plans are first touched by eight goroutines
// at once — Baseline, both access schedules, SegmentCells and the static
// bound, all readers of the one memo — answers every query
// Float64bits-identically to the brute-force oracle, hands out the Cε(ℓ)
// lists a built index of the same corpus does, and ends up holding one
// plan per ε. Run under -race in CI.
func TestPlanConcurrentFirstTouch(t *testing.T) {
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
			epsilons := map[float64]bool{}
			for i, q := range cfg.Queries {
				if want[i], err = oracle.TopK(net, pois, q); err != nil {
					t.Fatal(err)
				}
				wantBound[i] = core.BruteBound(built, q)
				epsilons[q.Epsilon] = true
			}
			cold := reloaded(t, built, photos)
			start := make(chan struct{})
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					<-start
					for qi, q := range cfg.Queries {
						switch (g + qi) % 4 {
						case 0:
							got, _, err := cold.Baseline(q)
							if err != nil || !core.BitEqualResults(got, want[qi]) {
								t.Errorf("%s Baseline %v: %v (%v) != oracle %v", cfg.Label(), q, got, err, want[qi])
							}
						case 1:
							got, _, err := cold.SOIWithStrategy(q, core.Drain)
							if err != nil || !core.BitEqualResults(got, want[qi]) {
								t.Errorf("%s Drain %v: %v (%v) != oracle %v", cfg.Label(), q, got, err, want[qi])
							}
						case 2:
							if !reflect.DeepEqual(cold.SegmentCells(q.Epsilon), built.SegmentCells(q.Epsilon)) {
								t.Errorf("%s eps=%g: SegmentCells differ", cfg.Label(), q.Epsilon)
							}
						case 3:
							got, err := cold.UnseenBound(q)
							if err != nil || math.Float64bits(got) != math.Float64bits(wantBound[qi]) {
								t.Errorf("%s UnseenBound %v: %v (%v) != brute force %v", cfg.Label(), q, got, err, wantBound[qi])
							}
							res, _, err := cold.SOI(q)
							if err != nil || !core.BitEqualResults(res, want[qi]) {
								t.Errorf("%s SOI %v: %v (%v) != oracle %v", cfg.Label(), q, res, err, want[qi])
							}
						}
					}
				}(g)
			}
			close(start)
			wg.Wait()
			if n := cold.PlanCount(); n != len(epsilons) {
				t.Fatalf("%s: %d ε-plans memoized for %d ε values", cfg.Label(), n, len(epsilons))
			}
		}
	}
}

// TestSnapshotOpenRetainsNoCorpus bounds the heap a snapshot-opened
// index keeps alive, per POI: the network, the photos, the dictionary
// and the index's segment arrays. The slab stays in the mapping and no
// POI is derived from it; a corpus decoded at open (≈ 85 B per POI on Berlin 0.25,
// two keyword slices per POI) does not fit under the ceiling.
func TestSnapshotOpenRetainsNoCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("generates Berlin 0.05")
	}
	if core.RaceEnabled {
		t.Skip("heap figures are measured without the race detector")
	}
	snapPath := writeBerlinSnapshot(t, 0.05)
	live := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := live()
	snap, mapping, err := snapshot.Open(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	defer mapping.Close()
	ix, err := core.NewIndexFromSlab(snap.Net, snap.POIs, snap.Slab)
	if err != nil {
		t.Fatal(err)
	}
	retained := float64(live()-before) / float64(snap.POIs.Len())
	runtime.KeepAlive(snap)
	runtime.KeepAlive(ix)
	t.Logf("open retains %.1f B per POI (%d POIs)", retained, snap.POIs.Len())
	const ceiling = 40
	if retained > ceiling {
		t.Fatalf("open retains %.1f B per POI, want ≤ %d", retained, ceiling)
	}
}

// BenchmarkOpenSnapshot times what a serving process does between exec
// and its first request: map the snapshot, open the index over the slab,
// warm the default ε-plan. It is the CI-visible form of setup_s.
func BenchmarkOpenSnapshot(b *testing.B) {
	snapPath := writeBerlinSnapshot(b, 0.05)
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
		b.StopTimer()
		if err := mapping.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}
