package datagen

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
)

func TestGenerateSmallDeterministic(t *testing.T) {
	a, err := Generate(Small(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(Small(7))
	if err != nil {
		t.Fatal(err)
	}
	if a.Network.NumSegments() != b.Network.NumSegments() {
		t.Fatalf("segments differ: %d vs %d", a.Network.NumSegments(), b.Network.NumSegments())
	}
	if a.POIs.Len() != b.POIs.Len() || a.Photos.Len() != b.Photos.Len() {
		t.Fatal("object counts differ between identical seeds")
	}
	// Spot check: first POI identical.
	if a.POIs.Get(0).Loc != b.POIs.Get(0).Loc {
		t.Fatal("POI placement not deterministic")
	}
	// A different seed must differ.
	c, err := Generate(Small(8))
	if err != nil {
		t.Fatal(err)
	}
	if a.POIs.Get(0).Loc == c.POIs.Get(0).Loc {
		t.Fatal("different seeds produced identical placements")
	}
}

func TestGenerateSmallStructure(t *testing.T) {
	ds, err := Generate(Small(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Network.Validate(); err != nil {
		t.Fatalf("network invalid: %v", err)
	}
	if ds.POIs.Len() < Small(1).NumPOIs {
		t.Fatalf("POIs = %d, want at least the background count %d", ds.POIs.Len(), Small(1).NumPOIs)
	}
	if ds.Photos.Len() < Small(1).NumPhotos {
		t.Fatalf("photos = %d", ds.Photos.Len())
	}
	// Every planted street must exist.
	for _, site := range ds.Profile.ShopSites {
		for _, name := range site.Streets {
			if ds.Network.StreetByName(name) == nil {
				t.Errorf("planted street %q missing", name)
			}
		}
	}
	if ds.Network.StreetByName(ds.Truth.PhotoStreet) == nil {
		t.Errorf("photo street %q missing", ds.Truth.PhotoStreet)
	}
	// Ground-truth ranking is ordered by planted density.
	if len(ds.Truth.ShoppingStreets) == 0 {
		t.Fatal("empty ground-truth ranking")
	}
	// The top ground-truth street comes from the densest site.
	densest := ds.Profile.ShopSites[0]
	for _, site := range ds.Profile.ShopSites {
		if site.Density > densest.Density {
			densest = site
		}
	}
	if ds.Truth.ShoppingStreets[0] != densest.Streets[0] {
		t.Errorf("top ground-truth street = %q, want %q", ds.Truth.ShoppingStreets[0], densest.Streets[0])
	}
}

func TestGenerateObjectsInsideExtent(t *testing.T) {
	ds, err := Generate(Small(2))
	if err != nil {
		t.Fatal(err)
	}
	// Objects are placed near streets; allow a generous margin beyond the
	// extent for perpendicular offsets and polyline overshoot.
	margin := 0.05
	bounds := ds.Profile.Extent.Expand(margin)
	for _, p := range ds.POIs.All() {
		if !bounds.Contains(p.Loc) {
			t.Fatalf("POI %d at %v far outside extent", p.ID, p.Loc)
		}
	}
	for _, r := range ds.Photos.All() {
		if !bounds.Contains(r.Loc) {
			t.Fatalf("photo %d at %v far outside extent", r.ID, r.Loc)
		}
	}
}

func TestGenerateKeywordPrevalence(t *testing.T) {
	p := Small(3)
	p.NumPOIs = 40_000
	ds, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, cat := range p.Categories {
		q, _ := ds.Dict.LookupAll([]string{cat.Name})
		got := float64(ds.POIs.CountRelevant(q)) / float64(p.NumPOIs)
		// Within 25% relative of the configured probability (planted shop
		// POIs inflate the denominator only slightly).
		if got < cat.Prob*0.75 || got > cat.Prob*1.35 {
			t.Errorf("category %q prevalence %v, configured %v", cat.Name, got, cat.Prob)
		}
	}
}

func TestPlantedStreetsRankTop(t *testing.T) {
	ds, err := Generate(Small(4))
	if err != nil {
		t.Fatal(err)
	}
	ix, err := core.NewIndex(ds.Network, ds.POIs, core.IndexConfig{CellSize: 0.0005})
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := ix.SOI(core.Query{Keywords: []string{"shop"}, K: 10, Epsilon: 0.0005})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 {
		t.Fatal("no results")
	}
	planted := make(map[string]bool)
	for _, s := range ds.Truth.ShoppingStreets {
		planted[s] = true
	}
	hits := 0
	for _, r := range res {
		if planted[r.Name] {
			hits++
		}
	}
	// Most of the top-10 should be planted shopping streets.
	if hits < 6 {
		names := make([]string, len(res))
		for i, r := range res {
			names[i] = r.Name
		}
		t.Fatalf("only %d of top-10 are planted streets: %v", hits, names)
	}
	// The very top street should come from one of the two densest sites
	// (interest is noisy between near-equal densities).
	sites := ds.Profile.ShopSites
	topSite := make(map[string]bool)
	for _, site := range sites {
		if site.Density >= 0.9 {
			for _, s := range site.Streets {
				topSite[s] = true
			}
		}
	}
	if !topSite[res[0].Name] {
		t.Errorf("top street %q not from a dense site", res[0].Name)
	}
}

func TestPhotoStreetWorkload(t *testing.T) {
	ds, err := Generate(Small(5))
	if err != nil {
		t.Fatal(err)
	}
	st := ds.Network.StreetByName(ds.Truth.PhotoStreet)
	if st == nil {
		t.Fatal("photo street missing")
	}
	count := 0
	for _, r := range ds.Photos.All() {
		if ds.Network.DistToStreet(r.Loc, st.ID) <= 0.0005 {
			count++
		}
	}
	want := ds.Profile.HotStreetPhotos
	if count < want*3/4 {
		t.Fatalf("photo street has %d nearby photos, want at least %d", count, want*3/4)
	}
}

func TestScale(t *testing.T) {
	p := London()
	s := Scale(p, 0.1)
	if s.NumPOIs != p.NumPOIs/10 {
		t.Errorf("NumPOIs = %d", s.NumPOIs)
	}
	if s.LocalStreets != p.LocalStreets/10 {
		t.Errorf("LocalStreets = %d", s.LocalStreets)
	}
	if got := Scale(p, 1); got.NumPOIs != p.NumPOIs {
		t.Error("Scale(1) changed the profile")
	}
	tiny := Scale(p, 1e-9)
	if tiny.AvenuesH < 1 {
		t.Error("Scale floored a positive knob to zero")
	}
}

func TestProfilesTable1Shape(t *testing.T) {
	// The three full profiles must be ordered like Table 1:
	// London > Berlin > Vienna in segments and POIs.
	ps := Profiles()
	if len(ps) != 3 {
		t.Fatalf("Profiles = %d", len(ps))
	}
	if !(ps[0].NumPOIs > ps[1].NumPOIs && ps[1].NumPOIs > ps[2].NumPOIs) {
		t.Error("POI counts not decreasing")
	}
	for _, p := range ps {
		if len(p.SourceLists[0]) != 5 || len(p.SourceLists[1]) != 5 {
			t.Errorf("%s: source lists must have 5 streets each", p.Name)
		}
		// Source lists only reference planted streets.
		planted := map[string]bool{}
		for _, site := range p.ShopSites {
			for _, s := range site.Streets {
				planted[s] = true
			}
		}
		for _, src := range p.SourceLists {
			for _, s := range src {
				if !planted[s] {
					t.Errorf("%s: source street %q not planted", p.Name, s)
				}
			}
		}
		if !planted[p.PhotoStreet] {
			t.Errorf("%s: photo street %q not planted", p.Name, p.PhotoStreet)
		}
	}
}

func TestPoissonish(t *testing.T) {
	for _, mean := range []float64{0, 0.5, 3, 50} {
		var sum float64
		const n = 20000
		rng := rand.New(rand.NewSource(99))
		for i := 0; i < n; i++ {
			sum += float64(poissonish(rng, mean))
		}
		got := sum / n
		if math.Abs(got-mean) > 0.05*mean+0.05 {
			t.Errorf("poissonish mean %v: sampled %v", mean, got)
		}
	}
}

func TestSegmentLengthExtremes(t *testing.T) {
	ds, err := Generate(Small(10))
	if err != nil {
		t.Fatal(err)
	}
	st := ds.Network.Stats()
	// The sliver lane gives a sub-2m minimum; the orbital motorway a
	// multi-km maximum.
	if st.MinSegmentLen > 2*degPerMeter {
		t.Errorf("min segment length %v deg too large", st.MinSegmentLen)
	}
	if st.MaxSegmentLen < 1000*degPerMeter {
		t.Errorf("max segment length %v deg too small", st.MaxSegmentLen)
	}
}

// BenchmarkGenerate generates Berlin at the serving benchmark's scale:
// what soibuild, soiserve -city and the benchmark driver each pay before
// anything else.
func BenchmarkGenerate(b *testing.B) {
	p := Scale(Berlin(), 0.25)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(p); err != nil {
			b.Fatal(err)
		}
	}
}
