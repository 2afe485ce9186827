package snapshot_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/grid"
	"repro/internal/photo"
	"repro/internal/poi"
	"repro/internal/snapshot"
	"repro/internal/vocab"
)

// tampered is a snapshot with valid checksums around a value every
// other door refuses, and the errors Decode must wrap.
type tampered struct {
	name string
	data []byte
	want []error
}

// tamperedSnapshots builds one tampered snapshot per value check of the
// slab and photo sections over the Tiny(3) world. The slab guards every
// POI value too — the corpus is derived from it — and Encode refuses a
// slab that does not index the corpus, so the slab rows are written by
// patching the slab section of a valid encoding and re-sealing its CRC.
func tamperedSnapshots(tb testing.TB) []tampered {
	tb.Helper()
	ds, err := datagen.Generate(datagen.Tiny(3))
	if err != nil {
		tb.Fatal(err)
	}
	ix, err := core.NewIndex(ds.Network, ds.POIs, core.IndexConfig{CellSize: 0.004})
	if err != nil {
		tb.Fatal(err)
	}
	valid, err := snapshot.Encode(&snapshot.Snapshot{Net: ds.Network, POIs: ds.POIs, Photos: ds.Photos, Slab: ix.Slab()})
	if err != nil {
		tb.Fatal(err)
	}
	slabRow := func(name string, mut func(*grid.Slab), want ...error) tampered {
		return tampered{name: name, data: patchSlab(tb, valid, mut), want: append(want, snapshot.ErrMalformed)}
	}
	photoRow := func(name string, tags vocab.Set) tampered {
		photos := append([]photo.Photo(nil), ds.Photos.All()...)
		photos[0].Tags = tags
		c, err := photo.NewCorpus(photos, ds.Photos.Dict())
		if err != nil {
			tb.Fatal(err)
		}
		data, err := snapshot.Encode(&snapshot.Snapshot{Net: ds.Network, POIs: ds.POIs, Photos: c, Slab: ix.Slab()})
		if err != nil {
			tb.Fatalf("%s: %v", name, err)
		}
		return tampered{name: name, data: data, want: []error{snapshot.ErrMalformed}}
	}
	// cell finds the first cell with at least min keywords, entry the
	// first (cell, keyword) entry past cell 0 posting exactly one POI.
	cell := func(s *grid.Slab, min uint32) uint32 {
		for ord := range s.CellIDs {
			if s.KwOff[ord+1]-s.KwOff[ord] >= min {
				return uint32(ord)
			}
		}
		tb.Fatalf("no cell holds %d keywords", min)
		return 0
	}
	entry := func(s *grid.Slab) uint32 {
		for j := s.KwOff[1]; j < uint32(len(s.CellKw)); j++ {
			if s.PostOff[j+1]-s.PostOff[j] == 1 {
				return j
			}
		}
		tb.Fatal("no entry past cell 0 posts exactly one POI")
		return 0
	}
	slabBad := grid.ErrSlabMalformed
	nan, inf := math.NaN(), math.Inf(1)
	return []tampered{
		slabRow("slab ObjW NaN", func(s *grid.Slab) { s.ObjW[0] = nan }, slabBad, poi.ErrBadWeight),
		slabRow("slab ObjW negative", func(s *grid.Slab) { s.ObjW[0] = -1 }, slabBad, poi.ErrBadWeight),
		slabRow("slab ObjW infinite", func(s *grid.Slab) { s.ObjW[0] = inf }, slabBad, poi.ErrBadWeight),
		slabRow("slab ObjW above 1e9", func(s *grid.Slab) { s.ObjW[0] = 2e9 }, slabBad, poi.ErrBadWeight),
		slabRow("slab ObjW 0", func(s *grid.Slab) { s.ObjW[0] = 0 }),
		slabRow("slab ObjX infinite", func(s *grid.Slab) { s.ObjX[0] = inf }, slabBad),
		slabRow("slab ObjY NaN", func(s *grid.Slab) { s.ObjY[0] = nan }, slabBad),
		slabRow("slab InvWeight negative", func(s *grid.Slab) { s.InvWeight[0] = -5 }, slabBad),
		slabRow("slab InvWeight NaN", func(s *grid.Slab) { s.InvWeight[0] = nan }, slabBad),
		slabRow("slab CellWeight infinite", func(s *grid.Slab) { s.CellWeight[0] = inf }, slabBad),
		slabRow("slab CellWeight negative", func(s *grid.Slab) { s.CellWeight[0] = -1 }, slabBad),
		slabRow("slab CellKw descending", func(s *grid.Slab) {
			at := s.KwOff[cell(s, 2)]
			s.CellKw[at], s.CellKw[at+1] = s.CellKw[at+1], s.CellKw[at]
		}),
		slabRow("slab CellKw repeated", func(s *grid.Slab) {
			at := s.KwOff[cell(s, 2)]
			s.CellKw[at+1] = s.CellKw[at]
		}),
		slabRow("slab object in two cells", func(s *grid.Slab) {
			last := len(s.CellIDs) - 1
			s.Members[s.MemberOff[last]] = s.Members[0]
		}),
		slabRow("slab posting outside its cell's members", func(s *grid.Slab) {
			s.Postings[s.PostOff[entry(s)]] = s.Members[0]
		}),
		photoRow("photo tags descending", vocab.Set{1, 0}),
		photoRow("photo tags repeated", vocab.Set{0, 0}),
	}
}

// patchSlab returns a copy of the encoded snapshot data whose slab
// section mut has changed in place — array lengths as they were — with
// the section's CRC-32C re-sealed, so every checksum is valid.
func patchSlab(tb testing.TB, data []byte, mut func(*grid.Slab)) []byte {
	tb.Helper()
	const slabSection = 6
	data = bytes.Clone(data)
	le := binary.LittleEndian
	for i := range int(le.Uint32(data[12:])) {
		entry := data[16+24*i:]
		if le.Uint32(entry) != slabSection {
			continue
		}
		payload := data[le.Uint64(entry[8:]):][:le.Uint64(entry[16:])]
		s, err := grid.DecodeSlab(bytes.Clone(payload))
		if err != nil {
			tb.Fatal(err)
		}
		mut(s)
		enc := s.AppendBinary(nil)
		if len(enc) != len(payload) {
			tb.Fatalf("the patched slab encodes to %d bytes, the section holds %d", len(enc), len(payload))
		}
		copy(payload, enc)
		le.PutUint32(entry[4:], crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
		return data
	}
	tb.Fatal("no slab section")
	return nil
}

// TestDecodeRefusesTamperedValues: the snapshot door refuses what every
// other door refuses — non-finite coordinates, weights outside [0, 1e9],
// negative or non-finite cell and inverted weights, and keyword sets
// that are not strictly ascending — and every slab a POI corpus could
// not be derived from, with the typed error, though every checksum is
// valid.
func TestDecodeRefusesTamperedValues(t *testing.T) {
	for _, c := range tamperedSnapshots(t) {
		_, err := snapshot.Decode(c.data)
		if err == nil {
			t.Errorf("%s: Decode accepted it", c.name)
			continue
		}
		for _, want := range c.want {
			if !errors.Is(err, want) {
				t.Errorf("%s: Decode error %v does not wrap %v", c.name, err, want)
			}
		}
	}
}

// TestEncodeRefusesUnindexedCorpus: Encode writes the POI corpus as the
// slab that indexes it, so it refuses, with ErrNotIndexed, a corpus its
// slab does not index bit for bit, and a slab Decode would refuse.
func TestEncodeRefusesUnindexedCorpus(t *testing.T) {
	ds, err := datagen.Generate(datagen.Tiny(3))
	if err != nil {
		t.Fatal(err)
	}
	ix, err := core.NewIndex(ds.Network, ds.POIs, core.IndexConfig{CellSize: 0.004})
	if err != nil {
		t.Fatal(err)
	}
	all := ds.POIs.All()
	at := slices.IndexFunc(all, func(p poi.POI) bool { return len(p.Keywords) >= 2 })
	if at < 0 {
		t.Fatal("no POI holds two keywords")
	}
	kw := all[at].Keywords
	var unused vocab.ID
	for slices.Contains(kw, unused) {
		unused++
	}
	corpus := func(dict *vocab.Dictionary, mut func([]poi.POI) []poi.POI) *poi.Corpus {
		c, err := poi.NewCorpus(mut(slices.Clone(all)), dict)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	withPOI := func(mut func(*poi.POI)) *poi.Corpus {
		return corpus(ds.POIs.Dict(), func(pois []poi.POI) []poi.POI { mut(&pois[at]); return pois })
	}
	short := vocab.NewDictionary()
	for id := range ix.Slab().VocabN - 1 {
		short.Intern(ds.POIs.Dict().Name(vocab.ID(id)))
	}
	slab := func(mut func(*grid.Slab)) *grid.Slab {
		s, err := grid.DecodeSlab(ix.Slab().AppendBinary(nil))
		if err != nil {
			t.Fatal(err)
		}
		mut(s)
		return s
	}
	for _, c := range []struct {
		name string
		pois *poi.Corpus
		slab *grid.Slab
	}{
		{"weight changed", withPOI(func(p *poi.POI) { p.Weight *= 2 }), ix.Slab()},
		{"location moved one ulp", withPOI(func(p *poi.POI) { p.Loc.X = math.Nextafter(p.Loc.X, math.Inf(1)) }), ix.Slab()},
		{"keyword dropped", withPOI(func(p *poi.POI) { p.Keywords = p.Keywords[1:] }), ix.Slab()},
		{"keyword added", withPOI(func(p *poi.POI) { p.Keywords = vocab.NewSet(append([]vocab.ID{unused}, kw...)) }), ix.Slab()},
		{"keywords descending", withPOI(func(p *poi.POI) { p.Keywords = vocab.Set{kw[1], kw[0]} }), ix.Slab()},
		{"one POI more", corpus(ds.POIs.Dict(), func(pois []poi.POI) []poi.POI {
			return append(pois, poi.POI{ID: poi.ID(len(pois)), Loc: pois[0].Loc, Weight: 1})
		}), ix.Slab()},
		{"slab keyword past the dictionary", corpus(short, func(pois []poi.POI) []poi.POI { return pois }), ix.Slab()},
		{"slab weight NaN", ds.POIs, slab(func(s *grid.Slab) { s.ObjW[0] = math.NaN() })},
		{"slab weight 0", ds.POIs, slab(func(s *grid.Slab) { s.ObjW[0] = 0 })},
	} {
		_, err := snapshot.Encode(&snapshot.Snapshot{Net: ds.Network, POIs: c.pois, Photos: ds.Photos, Slab: c.slab})
		if !errors.Is(err, snapshot.ErrNotIndexed) {
			t.Errorf("%s: Encode error %v, want ErrNotIndexed", c.name, err)
		}
	}
}

// TestDecodeRefusesVersion1: a version-1 file, which stored the POI
// corpus as a section of its own, is refused with ErrVersion; it must be
// rebuilt.
func TestDecodeRefusesVersion1(t *testing.T) {
	data, err := snapshot.Encode(testSnapshot(t))
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(data[8:], 1)
	if _, err := snapshot.Decode(data); !errors.Is(err, snapshot.ErrVersion) {
		t.Fatalf("version 1: Decode error %v, want ErrVersion", err)
	}
}
