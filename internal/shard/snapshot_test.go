package shard

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
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
	loaded, err := LoadWorld(manifest)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := loaded.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
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

	single, err := core.NewSlabIndex(net, pois, core.IndexConfig{CellSize: 0.0005})
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

// TestLoadWorldRejectsBadManifest covers the typed failure paths.
func TestLoadWorldRejectsBadManifest(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m.json")
	if _, err := LoadWorld(path); err == nil {
		t.Error("missing manifest accepted")
	}
	os.WriteFile(path, []byte("{not json"), 0o644)
	if _, err := LoadWorld(path); err == nil {
		t.Error("malformed manifest accepted")
	}
	os.WriteFile(path, []byte(`{"version": 99, "shards": [{"file": "x.soi"}]}`), 0o644)
	if _, err := LoadWorld(path); err == nil {
		t.Error("wrong version accepted")
	}
	os.WriteFile(path, []byte(`{"version": 1, "shards": []}`), 0o644)
	if _, err := LoadWorld(path); err == nil {
		t.Error("empty shard list accepted")
	}
	os.WriteFile(path, []byte(`{"version": 1, "shards": [{"file": "absent.soi"}]}`), 0o644)
	if _, err := LoadWorld(path); err == nil {
		t.Error("missing shard file accepted")
	}
}
