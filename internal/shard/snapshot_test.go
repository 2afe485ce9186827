package shard

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
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

// TestWriteSnapshotsReplacesAtomically: WriteSnapshots replaces an older
// manifest and shard files whole, leaves no temporary file behind, and a
// world whose shard file cannot be written leaves the manifest as it
// was: the manifest goes through the same temp file, fsync and rename as
// the shard files, after all of them.
func TestWriteSnapshotsReplacesAtomically(t *testing.T) {
	net, pois := tinyWorld(t, 42)
	w, err := Partition(net, pois, Config{Tiles: 4, Halo: 0.0012, CellSize: 0.0005})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	manifest := filepath.Join(dir, "city.json")
	want := []string{"city.json"}
	for i := range w.Shards {
		want = append(want, fmt.Sprintf("city.shard%d.soi", i))
	}
	onlyTargets := func(when string) {
		t.Helper()
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		if !slices.Equal(names, want) {
			t.Fatalf("%s: directory holds %v, want %v", when, names, want)
		}
	}
	for _, name := range want {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("an older file"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := WriteSnapshots(manifest, w); err != nil {
		t.Fatal(err)
	}
	onlyTargets("after a rewrite")
	written, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LoadWorld(t, manifest); err != nil {
		t.Fatalf("loading the rewritten world: %v", err)
	}

	// A directory where shard 1's file belongs makes its rename fail.
	blocked := filepath.Join(dir, "blocked.shard1.soi")
	if err := os.MkdirAll(filepath.Join(blocked, "inside"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteSnapshots(filepath.Join(dir, "blocked.json"), w); err == nil {
		t.Fatal("WriteSnapshots succeeded over a directory in a shard file's place")
	}
	if _, err := os.Stat(filepath.Join(dir, "blocked.json")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("a failed shard write still wrote its manifest: %v", err)
	}
	if err := os.RemoveAll(blocked); err != nil {
		t.Fatal(err)
	}
	for i := range w.Shards {
		os.Remove(filepath.Join(dir, fmt.Sprintf("blocked.shard%d.soi", i)))
	}
	onlyTargets("after a failed write")
	if got, err := os.ReadFile(manifest); err != nil || !bytes.Equal(got, written) {
		t.Errorf("the first manifest changed: %v", err)
	}
}
