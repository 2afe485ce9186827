package snapshot_test

import (
	"errors"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/grid"
	"repro/internal/photo"
	"repro/internal/poi"
	"repro/internal/snapshot"
	"repro/internal/vocab"
)

// tampered is a snapshot Encode wrote with valid checksums around a
// value every other door refuses, and the errors Decode must wrap.
type tampered struct {
	name string
	data []byte
	want []error
}

// tamperedSnapshots builds one tampered snapshot per value check of the
// slab, POI and photo sections over the Tiny(3) world.
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
	slabRow := func(name string, mut func(*grid.Slab)) tampered {
		s, err := grid.DecodeSlab(ix.Slab().AppendBinary(nil))
		if err != nil {
			tb.Fatal(err)
		}
		mut(s)
		return encodeTampered(tb, name, &snapshot.Snapshot{Net: ds.Network, POIs: ds.POIs, Photos: ds.Photos, Slab: s},
			snapshot.ErrMalformed, grid.ErrSlabMalformed)
	}
	poiRow := func(name string, mut func(*poi.POI), want ...error) tampered {
		pois := append([]poi.POI(nil), ds.POIs.All()...)
		mut(&pois[0])
		c, err := poi.NewCorpus(pois, ds.POIs.Dict())
		if err != nil {
			tb.Fatal(err)
		}
		return encodeTampered(tb, name, &snapshot.Snapshot{Net: ds.Network, POIs: c, Photos: ds.Photos, Slab: ix.Slab()},
			append(want, snapshot.ErrMalformed)...)
	}
	photoRow := func(name string, tags vocab.Set) tampered {
		photos := append([]photo.Photo(nil), ds.Photos.All()...)
		photos[0].Tags = tags
		c, err := photo.NewCorpus(photos, ds.Photos.Dict())
		if err != nil {
			tb.Fatal(err)
		}
		return encodeTampered(tb, name, &snapshot.Snapshot{Net: ds.Network, POIs: ds.POIs, Photos: c, Slab: ix.Slab()},
			snapshot.ErrMalformed)
	}
	nan, inf := math.NaN(), math.Inf(1)
	return []tampered{
		slabRow("slab ObjW NaN", func(s *grid.Slab) { s.ObjW[0] = nan }),
		slabRow("slab ObjW negative", func(s *grid.Slab) { s.ObjW[0] = -1 }),
		slabRow("slab ObjW above 1e9", func(s *grid.Slab) { s.ObjW[0] = 2e9 }),
		slabRow("slab ObjX infinite", func(s *grid.Slab) { s.ObjX[0] = inf }),
		slabRow("slab ObjY NaN", func(s *grid.Slab) { s.ObjY[0] = nan }),
		slabRow("slab InvWeight negative", func(s *grid.Slab) { s.InvWeight[0] = -5 }),
		slabRow("slab InvWeight NaN", func(s *grid.Slab) { s.InvWeight[0] = nan }),
		slabRow("slab CellWeight infinite", func(s *grid.Slab) { s.CellWeight[0] = inf }),
		slabRow("slab CellWeight negative", func(s *grid.Slab) { s.CellWeight[0] = -1 }),
		poiRow("poi weight negative", func(p *poi.POI) { p.Weight = -1 }, poi.ErrBadWeight),
		poiRow("poi weight NaN", func(p *poi.POI) { p.Weight = nan }, poi.ErrBadWeight),
		poiRow("poi weight infinite", func(p *poi.POI) { p.Weight = inf }, poi.ErrBadWeight),
		poiRow("poi weight above 1e9", func(p *poi.POI) { p.Weight = 2e9 }, poi.ErrBadWeight),
		poiRow("poi keywords descending", func(p *poi.POI) { p.Keywords = vocab.Set{1, 0} }),
		poiRow("poi keywords repeated", func(p *poi.POI) { p.Keywords = vocab.Set{1, 1} }),
		photoRow("photo tags descending", vocab.Set{1, 0}),
		photoRow("photo tags repeated", vocab.Set{0, 0}),
	}
}

func encodeTampered(tb testing.TB, name string, s *snapshot.Snapshot, want ...error) tampered {
	tb.Helper()
	data, err := snapshot.Encode(s)
	if err != nil {
		tb.Fatalf("%s: %v", name, err)
	}
	return tampered{name: name, data: data, want: want}
}

// TestDecodeRefusesTamperedValues: the snapshot door refuses what every
// other door refuses — non-finite coordinates, weights outside [0, 1e9],
// negative or non-finite cell and inverted weights, and keyword sets
// that are not strictly ascending — with the typed error, though every
// checksum is valid.
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
