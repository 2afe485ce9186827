package diversify

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/datagen"
	"repro/internal/network"
	"repro/internal/photo"
)

// BenchmarkNewContext times building one describe context — the ρ/2 slab
// over a street's photo pool plus the R-independent bounds — which every
// /api/describe request pays before Algorithm 2 runs. Two pools of Berlin
// at scale 0.1: the median and the largest street, at the benchmark's
// smaller ρ. CI runs it for one iteration to print allocations per
// context.
func BenchmarkNewContext(b *testing.B) {
	const eps, rho = 0.0005, 0.0001
	ds, err := datagen.Generate(datagen.Scale(datagen.Berlin(), 0.1))
	if err != nil {
		b.Fatal(err)
	}
	pix, err := NewPhotoIndex(ds.Photos, eps)
	if err != nil {
		b.Fatal(err)
	}
	type pool struct {
		rs   []photo.Photo
		maxD float64
	}
	var pools []pool
	for i := range ds.Network.Streets() {
		if rs, maxD := pix.StreetPhotos(ds.Network, network.StreetID(i), eps); len(rs) >= 2 {
			pools = append(pools, pool{rs, maxD})
		}
	}
	if len(pools) == 0 {
		b.Fatal("no street has photos")
	}
	sort.SliceStable(pools, func(i, j int) bool { return len(pools[i].rs) < len(pools[j].rs) })
	for _, c := range []struct {
		name string
		pool pool
	}{{"median", pools[len(pools)/2]}, {"max", pools[len(pools)-1]}} {
		freq := FreqFromPhotos(ds.Dict, c.pool.rs)
		b.Run(fmt.Sprintf("%s/photos=%d", c.name, len(c.pool.rs)), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := NewContext(c.pool.rs, freq, c.pool.maxD, rho); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
