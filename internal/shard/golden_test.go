package shard

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/network"
)

// goldenEntry pins one ranked result bit-exactly.
type goldenEntry struct {
	street       network.StreetID
	name         string
	interestBits uint64
	bestSegment  network.SegmentID
	massBits     uint64
}

// The seed-42 Tinytown golden: Ψ={shop,food}, k=5, ε=0.0005, cell
// 0.0005, halo 0.0012. The ranking is identical at every shard count —
// that is the point — while the early-termination counters depend only
// on the partition, never on gather timing. "East-West Avenue 2"
// (street 1) spans the full city width, so at every tiling it straddles
// tile borders and its mass depends on halo-replicated POIs.
var goldenRanking = []goldenEntry{
	{14, "Neue Schönhauser Straße", 0x417d4518223c5f4a, 106, 0x4055c00000000000},
	{18, "Münzstraße", 0x417bc9e794de8efe, 129, 0x4051000000000000},
	{1, "Tinytown East-West Avenue 2", 0x416e0996955d642d, 14, 0x4045000000000000},
	{7, "Tinytown Diagonal 1", 0x4161c9d8beb2dfc0, 60, 0x4043800000000000},
	{0, "Tinytown East-West Avenue 1", 0x41615cd50719c305, 6, 0x4033000000000000},
}

// goldenCounters pins the deterministic scatter-gather accounting per
// shard count (empty tiles produce no shard, so 9 tiles → 6 shards).
var goldenCounters = map[int]GatherStats{
	2: {ShardsTotal: 2, ShardsEvaluated: 1, ShardsPruned: 1},
	4: {ShardsTotal: 4, ShardsEvaluated: 2, ShardsPruned: 2},
	9: {ShardsTotal: 6, ShardsEvaluated: 4, ShardsPruned: 2},
}

func goldenQuery() core.Query {
	return core.Query{Keywords: []string{"shop", "food"}, K: 5, Epsilon: 0.0005}
}

// TestGoldenShardBoundary pins the shard-boundary contract on a fixed
// world: identical ranked ids and Float64bits scores at 2, 4 and 9
// tiles, and pinned early-termination counters. Each configuration runs
// repeatedly so a gather-order or scheduling dependence would flake
// loudly rather than pass silently.
func TestGoldenShardBoundary(t *testing.T) {
	net, pois := tinyWorld(t, 42)
	for tiles, wantGS := range goldenCounters {
		w, err := Partition(net, pois, Config{Tiles: tiles, Halo: 0.0012, CellSize: 0.0005})
		if err != nil {
			t.Fatalf("tiles=%d: %v", tiles, err)
		}
		coord := NewCoordinator(w)
		for run := 0; run < 10; run++ {
			got, gs, err := coord.TopK(context.Background(), goldenQuery())
			if err != nil {
				t.Fatalf("tiles=%d run=%d: %v", tiles, run, err)
			}
			if len(got) != len(goldenRanking) {
				t.Fatalf("tiles=%d run=%d: %d results, want %d", tiles, run, len(got), len(goldenRanking))
			}
			for i, want := range goldenRanking {
				g := got[i]
				if g.Street != want.street || g.Name != want.name || g.BestSegment != want.bestSegment {
					t.Errorf("tiles=%d rank %d: got street=%d name=%q seg=%d, want street=%d name=%q seg=%d",
						tiles, i, g.Street, g.Name, g.BestSegment, want.street, want.name, want.bestSegment)
				}
				if math.Float64bits(g.Interest) != want.interestBits {
					t.Errorf("tiles=%d rank %d: interest bits %#x, want %#x", tiles, i, math.Float64bits(g.Interest), want.interestBits)
				}
				if math.Float64bits(g.Mass) != want.massBits {
					t.Errorf("tiles=%d rank %d: mass bits %#x, want %#x", tiles, i, math.Float64bits(g.Mass), want.massBits)
				}
			}
			if gs.ShardsTotal != wantGS.ShardsTotal || gs.ShardsEvaluated != wantGS.ShardsEvaluated || gs.ShardsPruned != wantGS.ShardsPruned {
				t.Errorf("tiles=%d run=%d: counters total=%d eval=%d pruned=%d, want total=%d eval=%d pruned=%d",
					tiles, run, gs.ShardsTotal, gs.ShardsEvaluated, gs.ShardsPruned,
					wantGS.ShardsTotal, wantGS.ShardsEvaluated, wantGS.ShardsPruned)
			}
		}
	}
}

// TestGoldenBorderStraddle proves the golden top-k actually exercises
// the halo machinery: street 1 crosses tile borders at every tested
// tiling (its bbox spans more than one tile column), so its exact mass
// needs POIs replicated from neighbouring tiles.
func TestGoldenBorderStraddle(t *testing.T) {
	net, pois := tinyWorld(t, 42)
	for _, tiles := range []int{2, 4, 9} {
		w, err := Partition(net, pois, Config{Tiles: tiles, Halo: 0.0012, CellSize: 0.0005})
		if err != nil {
			t.Fatal(err)
		}
		gx := w.TilesX
		tileW := w.Bounds.Width() / float64(gx)
		b := net.StreetBounds(1)
		lo := int((b.MinX - w.Bounds.MinX) / tileW)
		hi := int((b.MaxX - w.Bounds.MinX) / tileW)
		if hi >= gx {
			hi = gx - 1
		}
		if lo == hi {
			t.Errorf("tiles=%d: golden street 1 fits one tile column [%d,%d]; world no longer exercises the border", tiles, lo, hi)
		}
	}
}

// TestGoldenPartition pins the bytes soibuild -shards writes for Berlin
// 0.1 at 4 and at 9 tiles: one FNV-64a for the manifest and one for each
// shard file, in shard order. The street assignment, the replicated POI
// subsets, each shard's slab and the numbering of shards are all in
// these bytes, so a change to how Partition or WriteSnapshots builds
// them must pass with the literals as they are.
func TestGoldenPartition(t *testing.T) {
	ds, err := datagen.Generate(datagen.Scale(datagen.Berlin(), 0.1))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		tiles    int
		manifest uint64
		shards   []uint64
	}{
		{4, 0x0e233286b3cf13cb, []uint64{0x343942699c1f216c, 0xc94577c37018978f, 0xd3ecbbed9a414b6a, 0x461299d5a5efc011}},
		{9, 0x2bf182b31477368a, []uint64{
			0xe655e5f5b3cd6a3e, 0x114b50ec7c37c343, 0xc226bd76c09d92b8, 0x0eca15cb80d45d4b, 0xa3ade849cbc6f865,
			0x2304e647f3a2d3b6, 0x2ec84c15b39ed702, 0xab2303d913134a36, 0x44850282d9ef1634,
		}},
	} {
		w, err := Partition(ds.Network, ds.POIs, Config{Tiles: c.tiles, Halo: 0.0012, CellSize: 0.0005})
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		manifest := filepath.Join(dir, "berlin.manifest.json")
		if err := WriteSnapshots(manifest, w); err != nil {
			t.Fatal(err)
		}
		if got := fileHash(t, manifest); got != c.manifest {
			t.Errorf("tiles=%d: manifest hash %#x, want %#x", c.tiles, got, c.manifest)
		}
		got := make([]uint64, len(w.Shards))
		for i := range w.Shards {
			got[i] = fileHash(t, filepath.Join(dir, fmt.Sprintf("berlin.manifest.shard%d.soi", i)))
		}
		if !slices.Equal(got, c.shards) {
			t.Errorf("tiles=%d: shard file hashes %#x, want %#x", c.tiles, got, c.shards)
		}
	}
}

func fileHash(t *testing.T, path string) uint64 {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(data)
	return h.Sum64()
}
