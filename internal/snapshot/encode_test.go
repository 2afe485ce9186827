package snapshot_test

import (
	"hash/fnv"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/snapshot"
)

// TestGoldenEncode pins Encode's bytes on the small test world and on
// Berlin 0.1 as soibuild assembles it: one FNV-64a per snapshot. A change
// to how Encode lays out its buffer must pass with the literals as they
// are; only a deliberate format change may edit them.
func TestGoldenEncode(t *testing.T) {
	ds, err := datagen.Generate(datagen.Scale(datagen.Berlin(), 0.1))
	if err != nil {
		t.Fatal(err)
	}
	slab, err := core.BuildSlab(ds.Network, ds.POIs, core.IndexConfig{CellSize: 0.0005})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		snap *snapshot.Snapshot
		want uint64
	}{
		{"small", testSnapshot(t), 0x5bb5060e2b40c88c},
		{"berlin 0.1", &snapshot.Snapshot{Net: ds.Network, POIs: ds.POIs, Photos: ds.Photos, Slab: slab}, 0x8c5b144df45b7695},
	} {
		data, err := snapshot.Encode(c.snap)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		h.Write(data)
		if got := h.Sum64(); got != c.want {
			t.Errorf("%s: %d bytes hash %#x, want %#x", c.name, len(data), got, c.want)
		}
	}
}

// BenchmarkEncode encodes Berlin 0.25 as soibuild does before writing it.
func BenchmarkEncode(b *testing.B) {
	ds, err := datagen.Generate(datagen.Scale(datagen.Berlin(), 0.25))
	if err != nil {
		b.Fatal(err)
	}
	slab, err := core.BuildSlab(ds.Network, ds.POIs, core.IndexConfig{CellSize: 0.0005})
	if err != nil {
		b.Fatal(err)
	}
	snap := &snapshot.Snapshot{Net: ds.Network, POIs: ds.POIs, Photos: ds.Photos, Slab: slab}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := snapshot.Encode(snap); err != nil {
			b.Fatal(err)
		}
	}
}

// TestEncodeAllocatesOnce: Encode counts every section first and writes
// them all into one buffer of exactly the snapshot's length.
func TestEncodeAllocatesOnce(t *testing.T) {
	s := testSnapshot(t)
	var data []byte
	allocs := testing.AllocsPerRun(5, func() {
		var err error
		if data, err = snapshot.Encode(s); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 || cap(data) != len(data) {
		t.Fatalf("Encode: %v allocations, %d bytes in a buffer of %d; want one exact buffer", allocs, len(data), cap(data))
	}
}
