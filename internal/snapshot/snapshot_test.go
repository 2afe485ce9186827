package snapshot_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/grid"
	"repro/internal/snapshot"
)

func testSnapshot(tb testing.TB) *snapshot.Snapshot {
	tb.Helper()
	ds, err := datagen.Generate(datagen.Small(7))
	if err != nil {
		tb.Fatal(err)
	}
	pois := ds.WeightedPOIs()
	six, err := core.NewIndex(ds.Network, pois, core.IndexConfig{CellSize: 0.01})
	if err != nil {
		tb.Fatal(err)
	}
	return &snapshot.Snapshot{Net: ds.Network, POIs: pois, Photos: ds.Photos, Slab: six.Slab()}
}

// TestRoundTrip checks that Encode/Decode reproduces every corpus
// exactly and that the encoding is canonical (decode→re-encode is
// byte-identical).
func TestRoundTrip(t *testing.T) {
	s := testSnapshot(t)
	data, err := snapshot.Encode(s)
	if err != nil {
		t.Fatal(err)
	}
	got, err := snapshot.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	re, err := snapshot.Encode(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, re) {
		t.Fatal("decode→encode is not byte-identical")
	}

	if got.Net.Stats() != s.Net.Stats() {
		t.Fatalf("network stats differ: %+v vs %+v", got.Net.Stats(), s.Net.Stats())
	}
	for i := 0; i < s.Net.NumStreets(); i++ {
		a, b := s.Net.Street(uint32(i)), got.Net.Street(uint32(i))
		if a.Name != b.Name || !reflect.DeepEqual(a.Segments, b.Segments) {
			t.Fatalf("street %d differs: %+v vs %+v", i, a, b)
		}
	}
	for i := 0; i < s.Net.NumVertices(); i++ {
		if s.Net.Vertex(uint32(i)) != got.Net.Vertex(uint32(i)) {
			t.Fatalf("vertex %d differs", i)
		}
	}
	if !reflect.DeepEqual(got.POIs.All(), s.POIs.All()) {
		t.Fatal("POIs differ")
	}
	if !reflect.DeepEqual(got.Photos.All(), s.Photos.All()) {
		t.Fatal("photos differ")
	}
	da, db := s.POIs.Dict(), got.POIs.Dict()
	if da.Len() != db.Len() {
		t.Fatalf("dict sizes differ: %d vs %d", da.Len(), db.Len())
	}
	for i := 0; i < da.Len(); i++ {
		if da.Name(uint32(i)) != db.Name(uint32(i)) {
			t.Fatalf("dict entry %d differs: %q vs %q", i, da.Name(uint32(i)), db.Name(uint32(i)))
		}
	}
	if got.POIs.Dict() != got.Photos.Dict() {
		t.Fatal("decoded corpora do not share one dictionary")
	}
	if err := got.Slab.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestRebuiltIndexAnswersIdentically is the contract the snapshot exists
// for: an index rebuilt from a decoded snapshot must return bit-identical
// k-SOI answers to an index built from the original data.
func TestRebuiltIndexAnswersIdentically(t *testing.T) {
	s := testSnapshot(t)
	data, err := snapshot.Encode(s)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := snapshot.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	orig, err := core.NewIndex(s.Net, s.POIs, core.IndexConfig{CellSize: s.Slab.CellSize})
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := core.NewIndexFromSlab(dec.Net, dec.POIs, dec.Slab)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []core.Query{
		{Keywords: []string{"shop"}, K: 5, Epsilon: 0.01},
		{Keywords: []string{"shop", "food"}, K: 3, Epsilon: 0.02},
		{Keywords: []string{"museum"}, K: 10, Epsilon: 0.005},
	} {
		want, _, err := orig.SOI(q)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := loaded.SOI(q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("query %+v differs:\n got %+v\nwant %+v", q, got, want)
		}
	}
}

// TestWriteFileOpen exercises the mmap loader, including its typed
// rejection of a file corrupted on disk.
func TestWriteFileOpen(t *testing.T) {
	s := testSnapshot(t)
	path := filepath.Join(t.TempDir(), "world.soi")
	if err := snapshot.WriteFile(path, s); err != nil {
		t.Fatal(err)
	}
	got, m, err := snapshot.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Net.Stats() != s.Net.Stats() {
		t.Fatal("opened snapshot differs")
	}
	// The slab may alias the mapping, so all use happens before Close.
	if err := got.Slab.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal("second Close must be a no-op, got", err)
	}

	// Flip one payload byte on disk: Open must fail with ErrChecksum.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := snapshot.Open(path); !errors.Is(err, snapshot.ErrChecksum) {
		t.Fatalf("corrupted file: got %v, want ErrChecksum", err)
	}
	if _, _, err := snapshot.Open(filepath.Join(t.TempDir(), "missing.soi")); err == nil {
		t.Fatal("missing file accepted")
	}
}

// TestWriteFileReplacesAtomically: writing over an existing snapshot
// leaves the new bytes at the path and no temporary file beside it, and
// a snapshot Encode refuses leaves the old file as it was.
func TestWriteFileReplacesAtomically(t *testing.T) {
	s := testSnapshot(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "world.soi")
	onlyTarget := func(when string, want []byte) {
		t.Helper()
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 1 || entries[0].Name() != "world.soi" {
			var names []string
			for _, e := range entries {
				names = append(names, e.Name())
			}
			t.Fatalf("%s: directory holds %v, want only world.soi", when, names)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: %d bytes on disk, want the %d encoded", when, len(got), len(want))
		}
	}
	want, err := snapshot.Encode(s)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte("an older snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := snapshot.WriteFile(path, s); err != nil {
		t.Fatal(err)
	}
	onlyTarget("after a rewrite", want)
	if err := snapshot.WriteFile(path, s); err != nil {
		t.Fatal(err)
	}
	onlyTarget("after a second rewrite", want)
	for _, bad := range []*snapshot.Snapshot{
		{Net: s.Net, POIs: s.POIs, Photos: s.Photos},
		{Net: s.Net, POIs: s.POIs, Photos: s.Photos, Slab: &grid.Slab{}}, // indexes no POI
	} {
		if err := snapshot.WriteFile(path, bad); err == nil {
			t.Fatal("WriteFile accepted a snapshot Encode refuses")
		}
		onlyTarget("after a refused rewrite", want)
	}
}

// isTypedErr reports whether err wraps one of the snapshot package's
// typed decode failures.
func isTypedErr(err error) bool {
	for _, want := range []error{
		snapshot.ErrBadMagic, snapshot.ErrVersion, snapshot.ErrTruncated,
		snapshot.ErrChecksum, snapshot.ErrMalformed,
	} {
		if errors.Is(err, want) {
			return true
		}
	}
	return false
}

// TestDecodeCorrupt drives systematic damage through Decode: every
// truncation and a sweep of single-bit flips must yield a typed error or
// a snapshot that still re-encodes — never a panic or an untyped error.
func TestDecodeCorrupt(t *testing.T) {
	s := testSnapshot(t)
	data, err := snapshot.Encode(s)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := snapshot.Decode([]byte("NOTASNAP0000000000000000")); !errors.Is(err, snapshot.ErrBadMagic) {
		t.Fatalf("bad magic: got %v", err)
	}
	future := append([]byte(nil), data...)
	future[8] = 99
	if _, err := snapshot.Decode(future); !errors.Is(err, snapshot.ErrVersion) {
		t.Fatalf("future version: got %v", err)
	}

	for n := 0; n < len(data); n += 97 {
		if _, err := snapshot.Decode(data[:n]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		} else if !isTypedErr(err) {
			t.Fatalf("truncation to %d: untyped error %v", n, err)
		}
	}

	for pos := 0; pos < len(data); pos += 131 {
		mut := append([]byte(nil), data...)
		mut[pos] ^= 1 << (pos % 8)
		dec, err := snapshot.Decode(mut)
		if err != nil {
			if !isTypedErr(err) {
				t.Fatalf("flip at %d: untyped error %v", pos, err)
			}
			continue
		}
		// Flips in inter-section padding can decode; the result must still
		// be coherent.
		if _, err := snapshot.Encode(dec); err != nil {
			t.Fatalf("flip at %d decoded but re-encode failed: %v", pos, err)
		}
	}
}
