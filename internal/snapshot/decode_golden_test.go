package snapshot_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/shard"
	"repro/internal/snapshot"
)

// decodedHash is one FNV-64a over everything Decode hands back: every
// POI (id, location and weight bits, keyword ids), every photo (id,
// location bits, tags), the dictionary's names, the network's vertices,
// streets and segment endpoints, and the slab's bytes.
func decodedHash(s *snapshot.Snapshot) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	f64 := func(v float64) { put(math.Float64bits(v)) }
	put(uint64(s.POIs.Len()))
	for _, p := range s.POIs.All() {
		put(uint64(p.ID))
		f64(p.Loc.X)
		f64(p.Loc.Y)
		f64(p.Weight)
		put(uint64(len(p.Keywords)))
		for _, k := range p.Keywords {
			put(uint64(k))
		}
	}
	put(uint64(s.Photos.Len()))
	for _, p := range s.Photos.All() {
		put(uint64(p.ID))
		f64(p.Loc.X)
		f64(p.Loc.Y)
		put(uint64(len(p.Tags)))
		for _, k := range p.Tags {
			put(uint64(k))
		}
	}
	dict := s.POIs.Dict()
	put(uint64(dict.Len()))
	for i := 0; i < dict.Len(); i++ {
		name := dict.Name(uint32(i))
		put(uint64(len(name)))
		h.Write([]byte(name))
	}
	net := s.Net
	put(uint64(net.NumVertices()))
	for i := 0; i < net.NumVertices(); i++ {
		v := net.Vertex(uint32(i))
		f64(v.X)
		f64(v.Y)
	}
	put(uint64(net.NumStreets()))
	for _, st := range net.Streets() {
		put(uint64(len(st.Name)))
		h.Write([]byte(st.Name))
		put(uint64(len(st.Segments)))
		for _, sid := range st.Segments {
			seg := net.Segment(sid)
			put(uint64(sid))
			put(uint64(seg.From))
			put(uint64(seg.To))
		}
	}
	h.Write(s.Slab.AppendBinary(nil))
	return h.Sum64()
}

// TestGoldenDecode pins what Decode returns, not the bytes it reads: the
// small test world and Berlin 0.1 as soibuild writes them, and every
// shard file soibuild -shards writes for Berlin 0.1 at 4 and at 9 tiles,
// each opened from disk. A change to the file layout must pass with the
// literals as they are.
func TestGoldenDecode(t *testing.T) {
	ds, err := datagen.Generate(datagen.Scale(datagen.Berlin(), 0.1))
	if err != nil {
		t.Fatal(err)
	}
	slab, err := core.BuildSlab(ds.Network, ds.POIs, core.IndexConfig{CellSize: 0.0005})
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, data []byte, want uint64) {
		t.Helper()
		dec, err := snapshot.Decode(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := decodedHash(dec); got != want {
			t.Errorf("%s: decoded content hashes %#x, want %#x", name, got, want)
		}
	}
	for _, c := range []struct {
		name string
		snap *snapshot.Snapshot
		want uint64
	}{
		{"small", testSnapshot(t), 0x4226b6aa3b770690},
		{"berlin 0.1", &snapshot.Snapshot{Net: ds.Network, POIs: ds.POIs, Photos: ds.Photos, Slab: slab}, 0xdf3e54667a2ad43f},
	} {
		data, err := snapshot.Encode(c.snap)
		if err != nil {
			t.Fatal(err)
		}
		check(c.name, data, c.want)
	}

	for _, c := range []struct {
		tiles  int
		shards []uint64
	}{
		{4, []uint64{0xf48c80cf7aad3837, 0x530d340f8504d14e, 0x04a39ce43f733c64, 0x0bcba625a7416430}},
		{9, []uint64{
			0xbc0577db832fa095, 0xf96488e204eb4289, 0x5dd10fc0efa007d2, 0xd57c4bb3b4fc91d0, 0x24dea1d6ca6b0aa0,
			0x5fb0cc9010756668, 0xe01311ee18d3a816, 0xb55f8135a4ef7e22, 0xd4e04e1464c00b22,
		}},
	} {
		w, err := shard.Partition(ds.Network, ds.POIs, shard.Config{Tiles: c.tiles, Halo: 0.0012, CellSize: 0.0005})
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		if err := shard.WriteSnapshots(filepath.Join(dir, "berlin.manifest.json"), w); err != nil {
			t.Fatal(err)
		}
		got := make([]uint64, len(w.Shards))
		for i := range w.Shards {
			s, m, err := snapshot.Open(filepath.Join(dir, fmt.Sprintf("berlin.manifest.shard%d.soi", i)))
			if err != nil {
				t.Fatal(err)
			}
			got[i] = decodedHash(s)
			if err := m.Close(); err != nil {
				t.Fatal(err)
			}
		}
		if !slices.Equal(got, c.shards) {
			t.Errorf("tiles=%d: decoded shard hashes %#x, want %#x", c.tiles, got, c.shards)
		}
	}
}
