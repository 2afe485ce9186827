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

// BenchmarkSTRelDiv is Figure 6's k panel for ST_Rel+Div on one city:
// Algorithm 2 on London 0.25's photo street (1,578 photos) at ε = 5e-4,
// ρ = 1e-4 and λ = w = 0.5 for k = 10 to 50, over one context built
// beforehand. It reports the photos evaluated per summary (photos/op)
// and the time per evaluated photo (ns/photo). An evaluation adds only
// the diversity terms of the photos selected since the photo's previous
// one, so ns/photo stays flat in k instead of growing with |selected|.
func BenchmarkSTRelDiv(b *testing.B) {
	const eps, rho = 0.0005, 0.0001
	ds, err := datagen.Generate(datagen.Scale(datagen.London(), 0.25))
	if err != nil {
		b.Fatal(err)
	}
	st := ds.Network.StreetByName(ds.Truth.PhotoStreet)
	if st == nil {
		b.Fatalf("photo street %q missing", ds.Truth.PhotoStreet)
	}
	rs, maxD := ExtractStreetPhotos(ds.Network, st.ID, ds.Photos, eps)
	ctx, err := NewContext(rs, FreqFromPhotos(ds.Dict, rs), maxD, rho)
	if err != nil {
		b.Fatal(err)
	}
	for _, k := range []int{10, 20, 30, 40, 50} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			p := Params{K: k, Lambda: 0.5, W: 0.5, Rho: rho}
			evaluated := 0
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := ctx.STRelDiv(p)
				if err != nil {
					b.Fatal(err)
				}
				evaluated += res.Stats.PhotosEvaluated
			}
			b.ReportMetric(float64(evaluated)/float64(b.N), "photos/op")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(evaluated), "ns/photo")
		})
	}
}
