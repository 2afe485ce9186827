package datagen

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
)

// TestGoldenWorld pins what Generate produces for three profiles: one
// FNV-64a over the dictionary's names in id order, every street's name,
// every segment's
// street and geometry bits, every POI's location bits, keyword ids and
// weight, every prestige weight (WeightedPOIs) and every photo's location
// bits and tag ids. Snapshots, shard files and every golden ranking
// downstream are functions of these values, so a change to how the
// generator allocates or searches must pass with the literals as they
// are; only a deliberate change to the generated worlds may edit them.
func TestGoldenWorld(t *testing.T) {
	for _, c := range []struct {
		name string
		p    Profile
		want uint64
	}{
		{"small", Small(1), 0xaca7470f35246d6e},
		{"vienna 0.05", Scale(Vienna(), 0.05), 0x889d0d2c08f6ce51},
		{"london 0.02", Scale(London(), 0.02), 0x7017005082ae1b26},
	} {
		ds, err := Generate(c.p)
		if err != nil {
			t.Fatal(err)
		}
		if got := worldHash(ds); got != c.want {
			t.Errorf("%s: %d segments, %d POIs, %d photos hash %#x, want %#x",
				c.name, ds.Network.NumSegments(), ds.POIs.Len(), ds.Photos.Len(), got, c.want)
		}
	}
}

func worldHash(ds *Dataset) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	f64 := func(v float64) { u64(math.Float64bits(v)) }
	for id := 0; id < ds.Dict.Len(); id++ {
		h.Write([]byte(ds.Dict.Name(uint32(id))))
		h.Write([]byte{0})
	}
	for id := 0; id < ds.Network.NumStreets(); id++ {
		h.Write([]byte(ds.Network.Street(uint32(id)).Name))
		h.Write([]byte{0})
	}
	for _, s := range ds.Network.Segments() {
		u64(uint64(s.Street))
		f64(s.Geom.A.X)
		f64(s.Geom.A.Y)
		f64(s.Geom.B.X)
		f64(s.Geom.B.Y)
	}
	for _, p := range ds.POIs.All() {
		f64(p.Loc.X)
		f64(p.Loc.Y)
		u64(uint64(len(p.Keywords)))
		for _, k := range p.Keywords {
			u64(uint64(k))
		}
		f64(p.Weight)
	}
	for _, p := range ds.WeightedPOIs().All() {
		f64(p.Weight)
	}
	for _, p := range ds.Photos.All() {
		f64(p.Loc.X)
		f64(p.Loc.Y)
		u64(uint64(len(p.Tags)))
		for _, k := range p.Tags {
			u64(uint64(k))
		}
	}
	return h.Sum64()
}
