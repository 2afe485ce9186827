package shard

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/poi"
)

// TestSnapshotRoundTrip: a partitioned world written to per-shard
// snapshots and mmap-loaded back must answer bit-identically to the
// in-memory partition and to the single index, with the same counters.
func TestSnapshotRoundTrip(t *testing.T) {
	net, pois := tinyWorld(t, 42)
	w, err := Partition(net, pois, Config{Tiles: 4, Halo: 0.0012, CellSize: 0.0005})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	manifest := filepath.Join(dir, "city.shards.json")
	if err := WriteSnapshots(manifest, w); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadWorld(t, manifest)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Shards) != len(w.Shards) {
		t.Fatalf("loaded %d shards, want %d", len(loaded.Shards), len(w.Shards))
	}

	q := goldenQuery()
	want, wantGS, err := NewCoordinator(w).TopK(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	got, gs, err := NewCoordinator(loaded).TopK(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if d := diffResults(got, want); d != "" {
		t.Errorf("snapshot round trip changed the answer: %s", d)
	}
	if gs.ShardsTotal != wantGS.ShardsTotal || gs.ShardsEvaluated != wantGS.ShardsEvaluated || gs.ShardsPruned != wantGS.ShardsPruned {
		t.Errorf("snapshot round trip changed counters: %+v vs %+v", gs, wantGS)
	}

	single, err := core.NewIndex(net, pois, core.IndexConfig{CellSize: 0.0005})
	if err != nil {
		t.Fatal(err)
	}
	ref, _, err := single.SOI(q)
	if err != nil {
		t.Fatal(err)
	}
	if d := diffResults(got, ref); d != "" {
		t.Errorf("loaded shards != single index: %s", d)
	}
}

// TestLoadWorldFromParentLayout: manifests written before replication went
// by cell hold, per shard, every POI inside the bounding rectangle of its
// streets' boxes expanded by the halo — a larger corpus that cuts through
// cells. Such a world must keep loading and answering bit-identically.
func TestLoadWorldFromParentLayout(t *testing.T) {
	const halo, cell = 0.0012, 0.0005
	net, pois := tinyWorld(t, 42)
	w, err := Partition(net, pois, Config{Tiles: 4, Halo: halo, CellSize: cell})
	if err != nil {
		t.Fatal(err)
	}
	var byCell, byRect int
	for _, s := range w.Shards {
		byCell += s.POIs.Len()
		rect := s.Net.StreetBounds(0).Expand(halo)
		for id := 1; id < s.Net.NumStreets(); id++ {
			rect = rect.Union(s.Net.StreetBounds(network.StreetID(id)).Expand(halo))
		}
		pb := poi.NewBuilder(pois.Dict())
		for _, p := range pois.All() {
			if rect.Contains(p.Loc) {
				pb.AddSet(p.Loc, p.Keywords, p.Weight)
			}
		}
		s.POIs = pb.Build()
		if s.Index, err = core.NewIndex(s.Net, s.POIs, core.IndexConfig{CellSize: cell, Bounds: w.Bounds}); err != nil {
			t.Fatal(err)
		}
		byRect += s.POIs.Len()
	}
	if byRect <= byCell {
		t.Fatalf("rectangle rule holds %d POIs, cell rule %d: the fixture no longer tells the layouts apart", byRect, byCell)
	}
	manifest := filepath.Join(t.TempDir(), "parent.shards.json")
	if err := WriteSnapshots(manifest, w); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadWorld(t, manifest)
	if err != nil {
		t.Fatal(err)
	}

	single, err := core.NewIndex(net, pois, core.IndexConfig{CellSize: cell})
	if err != nil {
		t.Fatal(err)
	}
	coord := NewCoordinator(loaded)
	for _, q := range []core.Query{
		goldenQuery(),
		{Keywords: []string{"shop"}, K: 25, Epsilon: 0.0002},
		{Keywords: []string{"food", "cafe", "market"}, K: 3, Epsilon: halo},
	} {
		want, _, err := single.SOI(q)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := coord.TopK(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if d := diffResults(got, want); d != "" {
			t.Errorf("%v: parent-layout shards != single index: %s", q, d)
		}
	}
}

// TestLoadWorldRejectsBadManifest covers the typed failure paths.
func TestLoadWorldRejectsBadManifest(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m.json")
	if _, err := LoadWorld(t, path); err == nil {
		t.Error("missing manifest accepted")
	}
	os.WriteFile(path, []byte("{not json"), 0o644)
	if _, err := LoadWorld(t, path); err == nil {
		t.Error("malformed manifest accepted")
	}
	os.WriteFile(path, []byte(`{"version": 99, "shards": [{"file": "x.soi"}]}`), 0o644)
	if _, err := LoadWorld(t, path); err == nil {
		t.Error("wrong version accepted")
	}
	os.WriteFile(path, []byte(`{"version": 1, "shards": []}`), 0o644)
	if _, err := LoadWorld(t, path); err == nil {
		t.Error("empty shard list accepted")
	}
	os.WriteFile(path, []byte(`{"version": 1, "shards": [{"file": "absent.soi"}]}`), 0o644)
	if _, err := LoadWorld(t, path); err == nil {
		t.Error("missing shard file accepted")
	}
}
