package shard

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/geo"
	"repro/internal/network"
	"repro/internal/poi"
	"repro/internal/vocab"
)

// tinyWorld generates a deterministic test city.
func tinyWorld(t *testing.T, seed int64) (*network.Network, *poi.Corpus) {
	t.Helper()
	ds, err := datagen.Generate(datagen.Tiny(seed))
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	return ds.Network, ds.POIs
}

// diffResults compares two rankings bit-exactly: same order, same ids,
// same Float64bits of interest and mass.
func diffResults(got, want []core.StreetResult) string {
	if len(got) != len(want) {
		return fmt.Sprintf("length %d != %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Street != w.Street || g.Name != w.Name || g.BestSegment != w.BestSegment {
			return fmt.Sprintf("rank %d: got street=%d name=%q seg=%d, want street=%d name=%q seg=%d",
				i, g.Street, g.Name, g.BestSegment, w.Street, w.Name, w.BestSegment)
		}
		if math.Float64bits(g.Interest) != math.Float64bits(w.Interest) {
			return fmt.Sprintf("rank %d street %d: interest bits %x != %x (%v vs %v)",
				i, g.Street, math.Float64bits(g.Interest), math.Float64bits(w.Interest), g.Interest, w.Interest)
		}
		if math.Float64bits(g.Mass) != math.Float64bits(w.Mass) {
			return fmt.Sprintf("rank %d street %d: mass bits %x != %x",
				i, g.Street, math.Float64bits(g.Mass), math.Float64bits(w.Mass))
		}
	}
	return ""
}

func TestSplitTiles(t *testing.T) {
	cases := []struct{ n, gx, gy int }{
		{1, 1, 1}, {2, 2, 1}, {3, 2, 2}, {4, 2, 2}, {5, 3, 2},
		{6, 3, 2}, {9, 3, 3}, {12, 4, 3}, {16, 4, 4}, {0, 1, 1},
	}
	for _, c := range cases {
		gx, gy := SplitTiles(c.n)
		if gx != c.gx || gy != c.gy {
			t.Errorf("SplitTiles(%d) = %d×%d, want %d×%d", c.n, gx, gy, c.gx, c.gy)
		}
		if c.n >= 1 && gx*gy < c.n {
			t.Errorf("SplitTiles(%d) = %d×%d holds fewer than n tiles", c.n, gx, gy)
		}
	}
}

// TestShardEquivalence is the heart of the PR's acceptance gate: the
// scatter-gather answer must be bit-identical to the single slab index
// at every shard count, for every ε (small relative to tile size, and
// equal to the halo so border replication is fully exercised). A halo
// past the world's diagonal — any finite size — replicates the whole
// corpus into every shard and answers the same.
func TestShardEquivalence(t *testing.T) {
	const halo = 0.0012
	queries := []core.Query{
		{Keywords: []string{"shop"}, K: 3, Epsilon: 0.0002},
		{Keywords: []string{"shop"}, K: 1, Epsilon: 0.0005},
		{Keywords: []string{"shop", "food"}, K: 25, Epsilon: 0.0005},
		{Keywords: []string{"food", "cafe", "market"}, K: 3, Epsilon: halo},
		{Keywords: []string{"quixotic"}, K: 3, Epsilon: 0.0005},
	}
	for _, seed := range []int64{1, 7, 42} {
		net, pois := tinyWorld(t, seed)
		single, err := core.NewIndex(net, pois, core.IndexConfig{CellSize: 0.0005})
		if err != nil {
			t.Fatalf("seed %d: single index: %v", seed, err)
		}
		for _, cfg := range []Config{
			{Tiles: 2, Halo: halo}, {Tiles: 4, Halo: halo}, {Tiles: 9, Halo: halo}, {Tiles: 16, Halo: halo},
			{Tiles: 4, Halo: 1}, {Tiles: 4, Halo: 1e300},
		} {
			tiles := cfg.Tiles
			cfg.CellSize = 0.0005
			w, err := Partition(net, pois, cfg)
			if err != nil {
				t.Fatalf("seed %d tiles %d: partition: %v", seed, tiles, err)
			}
			for _, s := range w.Shards {
				if cfg.Halo > halo && s.POIs.Len() != pois.Len() {
					t.Errorf("seed %d halo %g: shard %d holds %d of %d POIs", seed, cfg.Halo, s.ID, s.POIs.Len(), pois.Len())
				}
			}
			coord := NewCoordinator(w)
			for qi, q := range queries {
				want, _, err := single.SOI(q)
				if err != nil {
					t.Fatalf("seed %d q%d: single SOI: %v", seed, qi, err)
				}
				got, gs, err := coord.TopK(context.Background(), q)
				if err != nil {
					t.Fatalf("seed %d tiles %d q%d: TopK: %v", seed, tiles, qi, err)
				}
				if d := diffResults(got, want); d != "" {
					t.Errorf("seed %d tiles %d q%d: sharded != single: %s", seed, tiles, qi, d)
				}
				if gs.ShardsEvaluated+gs.ShardsPruned != gs.ShardsTotal {
					t.Errorf("seed %d tiles %d q%d: counters don't partition the shards: %+v", seed, tiles, qi, gs)
				}
			}
		}
	}
}

// TestShardEquivalenceVsMapIndex cross-checks the coordinator against
// core.Index.SOI on the unpartitioned world, at both cell sizes of the
// oracle matrix.
func TestShardEquivalenceVsMapIndex(t *testing.T) {
	net, pois := tinyWorld(t, 3)
	q := core.Query{Keywords: []string{"shop", "food"}, K: 5, Epsilon: 0.0005}
	for _, cell := range []float64{0.0005, 0.0013} {
		ix, err := core.NewIndex(net, pois, core.IndexConfig{CellSize: cell})
		if err != nil {
			t.Fatalf("index: %v", err)
		}
		want, _, err := ix.SOI(q)
		if err != nil {
			t.Fatalf("SOI: %v", err)
		}
		w, err := Partition(net, pois, Config{Tiles: 4, Halo: 0.0012, CellSize: cell})
		if err != nil {
			t.Fatalf("partition: %v", err)
		}
		got, _, err := NewCoordinator(w).TopK(context.Background(), q)
		if err != nil {
			t.Fatalf("TopK: %v", err)
		}
		if d := diffResults(got, want); d != "" {
			t.Errorf("cell %v: sharded != single index: %s", cell, d)
		}
	}
}

// TestPartitionDeterminism re-partitions the same dataset and demands an
// identical shard layout: same street assignment, POI subsets and maps.
func TestPartitionDeterminism(t *testing.T) {
	net, pois := tinyWorld(t, 11)
	a, err := Partition(net, pois, Config{Tiles: 4, Halo: 0.001, CellSize: 0.0005})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Partition(net, pois, Config{Tiles: 4, Halo: 0.001, CellSize: 0.0005})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Shards) != len(b.Shards) {
		t.Fatalf("shard counts differ: %d vs %d", len(a.Shards), len(b.Shards))
	}
	for i := range a.Shards {
		sa, sb := a.Shards[i], b.Shards[i]
		if sa.TileX != sb.TileX || sa.TileY != sb.TileY {
			t.Errorf("shard %d tile differs", i)
		}
		if fmt.Sprint(sa.Streets) != fmt.Sprint(sb.Streets) {
			t.Errorf("shard %d street maps differ", i)
		}
		if fmt.Sprint(sa.Segments) != fmt.Sprint(sb.Segments) {
			t.Errorf("shard %d segment maps differ", i)
		}
		if sa.POIs.Len() != sb.POIs.Len() {
			t.Errorf("shard %d POI subsets differ: %d vs %d", i, sa.POIs.Len(), sb.POIs.Len())
		}
	}
}

// TestPartitionInvariants checks the structural contract: every street
// in exactly one shard, id maps strictly ascending (the property that
// transports tie-breaks), and every POI within Halo of a shard street
// present in that shard's corpus.
func TestPartitionInvariants(t *testing.T) {
	net, pois := tinyWorld(t, 5)
	const halo = 0.0012
	w, err := Partition(net, pois, Config{Tiles: 9, Halo: halo, CellSize: 0.0005})
	if err != nil {
		t.Fatal(err)
	}
	seenStreet := make(map[network.StreetID]int)
	seenSeg := make(map[network.SegmentID]int)
	for _, s := range w.Shards {
		for i, gid := range s.Streets {
			if i > 0 && s.Streets[i-1] >= gid {
				t.Fatalf("shard %d: street map not strictly ascending at %d", s.ID, i)
			}
			seenStreet[gid]++
		}
		for i, gid := range s.Segments {
			if i > 0 && s.Segments[i-1] >= gid {
				t.Fatalf("shard %d: segment map not strictly ascending at %d", s.ID, i)
			}
			seenSeg[gid]++
		}
		if s.Net.NumStreets() != len(s.Streets) || s.Net.NumSegments() != len(s.Segments) {
			t.Fatalf("shard %d: map sizes don't match local network", s.ID)
		}
		// Halo sufficiency: every global POI within halo distance of a
		// local street must be in the shard corpus. Count by location.
		inShard := make(map[geo.Point]int)
		for _, p := range s.POIs.All() {
			inShard[p.Loc]++
		}
		for _, p := range pois.All() {
			near := false
			for local := range s.Streets {
				if s.Net.DistToStreet(p.Loc, network.StreetID(local)) <= halo {
					near = true
					break
				}
			}
			if near && inShard[p.Loc] == 0 {
				t.Fatalf("shard %d: POI at %v within halo of a shard street but absent", s.ID, p.Loc)
			}
		}
	}
	for id := 0; id < net.NumStreets(); id++ {
		if seenStreet[network.StreetID(id)] != 1 {
			t.Fatalf("street %d assigned to %d shards, want exactly 1", id, seenStreet[network.StreetID(id)])
		}
	}
	for id := 0; id < net.NumSegments(); id++ {
		if seenSeg[network.SegmentID(id)] != 1 {
			t.Fatalf("segment %d assigned to %d shards, want exactly 1", id, seenSeg[network.SegmentID(id)])
		}
	}
}

func TestEpsilonExceedsHalo(t *testing.T) {
	net, pois := tinyWorld(t, 1)
	w, err := Partition(net, pois, Config{Tiles: 2, Halo: 0.0005, CellSize: 0.0005})
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = NewCoordinator(w).TopK(context.Background(), core.Query{
		Keywords: []string{"shop"}, K: 3, Epsilon: 0.0012,
	})
	if err == nil {
		t.Fatal("expected error for ε > halo")
	}
	if !errorsIs(err, ErrEpsilonExceedsHalo) {
		t.Fatalf("error %v does not wrap ErrEpsilonExceedsHalo", err)
	}
}

func TestPartitionRejectsBadConfig(t *testing.T) {
	net, pois := tinyWorld(t, 1)
	for _, cfg := range []Config{
		{Tiles: 0, Halo: 0.001, CellSize: 0.0005},
		{Tiles: 2, Halo: -1, CellSize: 0.0005},
		{Tiles: 2, Halo: math.NaN(), CellSize: 0.0005},
		{Tiles: 2, Halo: math.Inf(1), CellSize: 0.0005},
		{Tiles: 2, Halo: 0.001, CellSize: 0},
	} {
		if _, err := Partition(net, pois, cfg); err == nil {
			t.Errorf("Partition(%+v) accepted invalid config", cfg)
		}
	}
	if _, err := Partition(mustEmptyNetwork(t), pois, Config{Tiles: 2, Halo: 0.001, CellSize: 0.0005}); err == nil {
		t.Error("Partition accepted an empty network")
	}
}

func mustEmptyNetwork(t *testing.T) *network.Network {
	t.Helper()
	n, err := network.NewBuilder().Build()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// errorsIs avoids importing errors alongside the fmt-based helpers.
func errorsIs(err, target error) bool {
	for err != nil {
		if err == target {
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// crossTieWorld builds a synthetic dataset with two geometrically
// congruent streets placed far apart — guaranteed different tiles at
// every tested shard count — each carrying an identically-placed POI, so
// their interests are exactly equal (same mass, same length, same ε).
// Every coordinate is dyadic, so lengths and offsets are computed
// without rounding and the tie is bit-exact by construction.
func crossTieWorld(t *testing.T) (*network.Network, *poi.Corpus) {
	t.Helper()
	nb := network.NewBuilder()
	// Street 0 in the west tile, street 1 congruent in the east tile.
	nb.AddStreet("west twin", []geo.Point{geo.Pt(0.125, 0.25), geo.Pt(0.375, 0.25)})
	nb.AddStreet("east twin", []geo.Point{geo.Pt(1.625, 0.25), geo.Pt(1.875, 0.25)})
	// A third street with strictly more mass, to make k=2 interesting.
	nb.AddStreet("anchor", []geo.Point{geo.Pt(0.875, 0.0625), geo.Pt(1.125, 0.0625)})
	net, err := nb.Build()
	if err != nil {
		t.Fatal(err)
	}
	dict := vocab.NewDictionary()
	pb := poi.NewBuilder(dict)
	add := func(x, y float64) {
		pb.Add(geo.Pt(x, y), []string{"shop"})
	}
	add(0.25, 0.3125) // same offset along the west twin...
	add(1.75, 0.3125) // ...and along the east twin
	add(0.9375, 0.078125)
	add(1.0625, 0.078125) // anchor carries two POIs
	return net, pb.Build()
}

// TestCrossShardTies pins the tie-break contract: streets in different
// shards with bit-equal interest are ordered by global street id, and
// the loser of a k=1 tie is the same street the single index drops.
func TestCrossShardTies(t *testing.T) {
	net, pois := crossTieWorld(t)
	single, err := core.NewIndex(net, pois, core.IndexConfig{CellSize: 0.0625})
	if err != nil {
		t.Fatal(err)
	}
	for _, tiles := range []int{2, 4, 9} {
		w, err := Partition(net, pois, Config{Tiles: tiles, Halo: 0.125, CellSize: 0.0625})
		if err != nil {
			t.Fatal(err)
		}
		coord := NewCoordinator(w)
		for _, k := range []int{1, 2, 3} {
			q := core.Query{Keywords: []string{"shop"}, K: k, Epsilon: 0.125}
			want, _, err := single.SOI(q)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := coord.TopK(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			if d := diffResults(got, want); d != "" {
				t.Errorf("tiles=%d k=%d: %s", tiles, k, d)
			}
		}
		// The twins tie exactly; order must be west (id 0) then east (id 1).
		got, _, err := coord.TopK(context.Background(), core.Query{Keywords: []string{"shop"}, K: 3, Epsilon: 0.125})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 3 {
			t.Fatalf("tiles=%d: got %d results, want 3", tiles, len(got))
		}
		if got[1].Street != 0 || got[2].Street != 1 {
			t.Errorf("tiles=%d: tie order %d,%d, want streets 0,1", tiles, got[1].Street, got[2].Street)
		}
		if math.Float64bits(got[1].Interest) != math.Float64bits(got[2].Interest) {
			t.Errorf("tiles=%d: twins do not tie bit-exactly: %v vs %v", tiles, got[1].Interest, got[2].Interest)
		}
	}
}
