package shard_test

import (
	"math"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/grid"
	"repro/internal/network"
	"repro/internal/oracle"
	"repro/internal/poi"
	"repro/internal/shard"
)

// TestPartitionReplicatesWholeNearCells pins the replication rule on the
// oracle matrix worlds and a Berlin slice, at 2, 4 and 9 tiles. Tightness:
// every cell a shard holds lies within Halo of one of the shard's segments
// (by brute force over the segments, not through the lattice span the
// partition itself walks), and four Berlin tiles together hold at most 1.7×
// the corpus — the bounding-rectangle rule held ≈ 2.6×. Wholeness: a held
// cell has the global cell's member count and weight. Equality: for every
// sweep ε ≤ Halo each shard segment's Cε(ℓ) is the global index's, cell id
// for cell id, which is what makes the shard-local mass folds the global
// ones.
func TestPartitionReplicatesWholeNearCells(t *testing.T) {
	const halo, cell = 0.0012, 0.0005
	type world struct {
		label string
		net   *network.Network
		pois  *poi.Corpus
	}
	var worlds []world
	for seed := int64(0); seed < 3; seed++ {
		for _, cfg := range oracle.MatrixConfigs(seed, false) {
			w, err := cfg.BuildWorld()
			if err != nil {
				t.Fatal(err)
			}
			net, pois, _, _, err := w.Build()
			if err != nil {
				t.Fatal(err)
			}
			worlds = append(worlds, world{cfg.Label(), net, pois})
		}
	}
	ds, err := datagen.Generate(datagen.Scale(datagen.Berlin(), 0.02))
	if err != nil {
		t.Fatal(err)
	}
	worlds = append(worlds, world{"berlin 0.02", ds.Network, ds.POIs})

	for _, w := range worlds {
		global, err := core.BuildSlab(w.net, w.pois, core.IndexConfig{CellSize: cell})
		if err != nil {
			t.Fatal(err)
		}
		for _, tiles := range []int{2, 4, 9} {
			part, err := shard.Partition(w.net, w.pois, shard.Config{Tiles: tiles, Halo: halo, CellSize: cell})
			if err != nil {
				t.Fatalf("%s tiles %d: %v", w.label, tiles, err)
			}
			var held int
			for _, s := range part.Shards {
				held += s.POIs.Len()
				checkShardCells(t, w.label, global, w.net, s, halo)
			}
			if w.label == "berlin 0.02" && tiles == 4 {
				if factor := float64(held) / float64(w.pois.Len()); factor > 1.7 {
					t.Errorf("berlin 0.02, 4 tiles: shards hold %.2f× the corpus, want ≤ 1.7×", factor)
				}
			}
		}
	}
}

func checkShardCells(t *testing.T, label string, global *grid.Slab, net *network.Network, s *shard.Shard, halo float64) {
	t.Helper()
	local := s.Index.Slab()
	if local.Lattice() != global.Lattice() {
		t.Fatalf("%s shard %d: lattice %+v, global %+v", label, s.ID, local.Lattice(), global.Lattice())
	}
	for ord, cid := range local.CellIDs {
		rect := local.CellRect(grid.CellID(cid))
		near := false
		for _, seg := range s.Net.Segments() {
			if rect.DistToSegment(seg.Geom) <= halo {
				near = true
				break
			}
		}
		if !near {
			t.Errorf("%s shard %d: holds cell %d, farther than the halo from all its segments", label, s.ID, cid)
		}
		g := global.OrdinalOf(grid.CellID(cid))
		if g < 0 {
			t.Fatalf("%s shard %d: cell %d is empty in the global index", label, s.ID, cid)
		}
		members := local.MemberOff[ord+1] - local.MemberOff[ord]
		if want := global.MemberOff[g+1] - global.MemberOff[g]; members != want {
			t.Errorf("%s shard %d cell %d: %d members, global cell has %d", label, s.ID, cid, members, want)
		}
		if math.Float64bits(local.CellWeight[ord]) != math.Float64bits(global.CellWeight[g]) {
			t.Errorf("%s shard %d cell %d: weight %v, global %v", label, s.ID, cid, local.CellWeight[ord], global.CellWeight[g])
		}
	}
	var lbuf, gbuf []int32
	for _, eps := range []float64{0.0002, 0.0005, halo} {
		for lid, gid := range s.Segments {
			lbuf = local.CellsNearSegmentInto(s.Net.Segment(network.SegmentID(lid)).Geom, eps, lbuf[:0])
			gbuf = global.CellsNearSegmentInto(net.Segment(gid).Geom, eps, gbuf[:0])
			for i, ord := range lbuf {
				lbuf[i] = local.CellIDs[ord]
			}
			for i, ord := range gbuf {
				gbuf[i] = global.CellIDs[ord]
			}
			if !slices.Equal(lbuf, gbuf) {
				t.Fatalf("%s shard %d segment %d ε=%g: Cε(ℓ) = cells %v, global %v", label, s.ID, gid, eps, lbuf, gbuf)
			}
		}
	}
}
