package datagen

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"

	"repro/internal/geo"
	"repro/internal/network"
	"repro/internal/photo"
	"repro/internal/poi"
	"repro/internal/vocab"
)

// GroundTruth records what the generator planted, standing in for the
// external evaluation data of the paper's effectiveness study.
type GroundTruth struct {
	// ShoppingStreets lists the planted shopping streets in decreasing
	// planted density (the generator's own ranking).
	ShoppingStreets []string
	// SourceLists are the two "authoritative" street lists (Table 2's
	// Web sources).
	SourceLists [2][]string
	// PhotoStreet is the street carrying the photo hotspot workload.
	PhotoStreet string
}

// Dataset bundles one generated city.
type Dataset struct {
	Profile Profile
	Network *network.Network
	POIs    *poi.Corpus
	Photos  *photo.Corpus
	// Dict is the keyword dictionary shared by POIs and photos.
	Dict  *vocab.Dictionary
	Truth GroundTruth
	// prestige[i] is the importance weight POI i carries under the
	// ratings/check-ins metadata model the paper suggests in §5.1.1;
	// 1 for every POI outside a prestigious planted site. The default
	// corpus is unweighted; WeightedPOIs applies these.
	prestige []float64
}

// WeightedPOIs returns a copy of the POI corpus with the prestige
// importance weights applied — the paper's suggested fix for streets
// that "essentially house big luxury brands": few shops, each weighted
// by its ratings/check-ins.
func (ds *Dataset) WeightedPOIs() *poi.Corpus {
	pb := poi.NewBuilder(ds.Dict)
	for _, p := range ds.POIs.All() {
		w := 1.0
		if int(p.ID) < len(ds.prestige) {
			w = ds.prestige[p.ID]
		}
		pb.AddSet(p.Loc, p.Keywords, w)
	}
	return pb.Build()
}

// noiseWords is the long-tail vocabulary attached to POIs and photos.
var noiseWords = []string{
	"door", "window", "corner", "market", "stall", "bench", "lamp",
	"bridge", "river", "tower", "gate", "yard", "cafe", "bar", "cinema",
	"gallery", "office", "bank", "clinic", "garage", "bakery", "library",
	"square", "statue", "fountain", "garden", "plaza", "arcade", "mall",
	"terrace", "station", "stop", "line", "route", "view", "roof",
}

// photoMoodWords tag scattered photos.
var photoMoodWords = []string{
	"sunny", "rain", "night", "dawn", "crowd", "quiet", "xmas", "summer",
	"festival", "tram", "bus", "bike", "walk", "facade", "graffiti",
	"reflection", "umbrella", "coffee", "lights", "snow",
}

// Generate builds a complete synthetic city from the profile.
func Generate(p Profile) (*Dataset, error) {
	if p.NumPOIs < 0 || p.NumPhotos < 0 {
		return nil, fmt.Errorf("datagen: negative object counts in profile %q", p.Name)
	}
	rng := rand.New(rand.NewSource(p.Seed))
	net, err := buildNetwork(p, rng)
	if err != nil {
		return nil, err
	}
	dict := vocab.NewDictionary()
	pois, prestige := buildPOIs(p, net, dict, rng)
	photos := buildPhotos(p, net, dict, rng)
	truth := GroundTruth{
		SourceLists: p.SourceLists,
		PhotoStreet: p.PhotoStreet,
	}
	// Planted ranking: site streets ordered by decreasing density, site
	// order breaking ties.
	type ranked struct {
		name    string
		density float64
	}
	var rs []ranked
	for _, site := range p.ShopSites {
		for _, s := range site.Streets {
			rs = append(rs, ranked{s, site.Density})
		}
	}
	sort.SliceStable(rs, func(i, j int) bool { return rs[i].density > rs[j].density })
	for _, r := range rs {
		truth.ShoppingStreets = append(truth.ShoppingStreets, r.name)
	}
	return &Dataset{
		Profile:  p,
		Network:  net,
		POIs:     pois,
		Photos:   photos,
		Dict:     dict,
		Truth:    truth,
		prestige: prestige,
	}, nil
}

// buildNetwork lays out the road network: a jittered grid of long avenues,
// a few diagonals, and many short local streets; planted site streets are
// renamed onto the local streets nearest each site center.
func buildNetwork(p Profile, rng *rand.Rand) (*network.Network, error) {
	b := network.NewBuilder()
	w, h := p.Extent.Width(), p.Extent.Height()

	// polyline walks from (x, y) in direction (dx, dy) for n segments of
	// jittered length base, with small perpendicular wiggle.
	polyline := func(x, y, dx, dy, base float64, n int) []geo.Point {
		pts := make([]geo.Point, 0, n+1)
		pts = append(pts, geo.Pt(x, y))
		for i := 0; i < n; i++ {
			step := base * (0.4 + 1.2*rng.Float64())
			x += dx * step
			y += dy * step
			// Perpendicular wiggle keeps streets from being perfectly
			// straight, like digitized OSM ways.
			wig := base * 0.12 * rng.NormFloat64()
			pts = append(pts, geo.Pt(x-dy*wig, y+dx*wig))
		}
		return pts
	}

	// Horizontal avenues.
	for i := 0; i < p.AvenuesH; i++ {
		y := p.Extent.MinY + h*(float64(i)+0.5)/float64(p.AvenuesH) + rng.NormFloat64()*h*0.002
		n := int(w/p.AvenueSegLen + 0.5)
		if n < 2 {
			n = 2
		}
		b.AddStreet(fmt.Sprintf("%s East-West Avenue %d", p.Name, i+1),
			polyline(p.Extent.MinX, y, 1, 0, p.AvenueSegLen, n))
	}
	// Vertical avenues.
	for i := 0; i < p.AvenuesV; i++ {
		x := p.Extent.MinX + w*(float64(i)+0.5)/float64(p.AvenuesV) + rng.NormFloat64()*w*0.002
		n := int(h/p.AvenueSegLen + 0.5)
		if n < 2 {
			n = 2
		}
		b.AddStreet(fmt.Sprintf("%s North-South Avenue %d", p.Name, i+1),
			polyline(x, p.Extent.MinY, 0, 1, p.AvenueSegLen, n))
	}
	// Diagonal arterials.
	for i := 0; i < p.Diagonals; i++ {
		x := p.Extent.MinX + rng.Float64()*w*0.5
		y := p.Extent.MinY + rng.Float64()*h*0.5
		d := 1 / math.Sqrt2
		n := int(math.Min(w, h)/p.AvenueSegLen + 0.5)
		if n < 2 {
			n = 2
		}
		b.AddStreet(fmt.Sprintf("%s Diagonal %d", p.Name, i+1),
			polyline(x, y, d, d, p.AvenueSegLen, n))
	}

	// Local streets: short, randomly placed, axis-aligned.
	type local struct {
		id     network.StreetID
		center geo.Point
	}
	locals := make([]local, 0, p.LocalStreets)
	for i := 0; i < p.LocalStreets; i++ {
		x := p.Extent.MinX + rng.Float64()*w*0.96 + w*0.02
		y := p.Extent.MinY + rng.Float64()*h*0.96 + h*0.02
		n := p.LocalSegMin
		if p.LocalSegMax > p.LocalSegMin {
			n += rng.Intn(p.LocalSegMax - p.LocalSegMin + 1)
		}
		var pts []geo.Point
		if rng.Intn(2) == 0 {
			pts = polyline(x, y, 1, 0, p.LocalSegLen, n)
		} else {
			pts = polyline(x, y, 0, 1, p.LocalSegLen, n)
		}
		id := b.AddStreet(fmt.Sprintf("%s Local Street %d", p.Name, i+1), pts)
		locals = append(locals, local{id: id, center: pts[len(pts)/2]})
	}

	// Table 1 length extremes: one sliver street (sub-meter segment) and
	// one long arterial segment.
	sliver := 1.0 * degPerMeter * (0.1 + rng.Float64())
	b.AddStreet(fmt.Sprintf("%s Sliver Lane", p.Name), []geo.Point{
		geo.Pt(p.Extent.MinX+w*0.1, p.Extent.MinY+h*0.1),
		geo.Pt(p.Extent.MinX+w*0.1+sliver, p.Extent.MinY+h*0.1),
	})
	long := math.Min(w, h) * 0.3
	b.AddStreet(fmt.Sprintf("%s Orbital Motorway", p.Name), []geo.Point{
		geo.Pt(p.Extent.MinX+w*0.05, p.Extent.MinY+h*0.9),
		geo.Pt(p.Extent.MinX+w*0.05+long, p.Extent.MinY+h*0.9),
	})

	// Rename planted site streets onto the local streets nearest each
	// site center (each local street is used at most once).
	used := make(map[network.StreetID]bool)
	for _, site := range p.ShopSites {
		c := geo.Pt(
			p.Extent.MinX+site.Center.X*w,
			p.Extent.MinY+site.Center.Y*h,
		)
		order := slices.Clone(locals)
		slices.SortStableFunc(order, func(a, b local) int {
			return cmp.Compare(a.center.DistSq(c), b.center.DistSq(c))
		})
		i := 0
		for _, name := range site.Streets {
			for i < len(order) && used[order[i].id] {
				i++
			}
			if i >= len(order) {
				return nil, fmt.Errorf("datagen: not enough local streets to plant %q", name)
			}
			b.RenameStreet(order[i].id, name)
			used[order[i].id] = true
			i++
		}
	}
	return b.Build()
}

// segmentPicker selects segments with probability proportional to length.
type segmentPicker struct {
	net *network.Network
	cum []float64
	// guide[j] is the first index whose cumulative length reaches
	// j/len(guide) of the total, so a search starts next to its answer.
	guide []int32
	scale float64 // len(guide) / total; 0 when every segment is empty
}

func newSegmentPicker(net *network.Network) *segmentPicker {
	cum := make([]float64, net.NumSegments())
	var total float64
	for i := range cum {
		total += net.Segment(network.SegmentID(i)).Length()
		cum[i] = total
	}
	sp := &segmentPicker{net: net, cum: cum, guide: make([]int32, len(cum))}
	if total > 0 {
		sp.scale = float64(len(cum)) / total
	}
	i := 0
	for j := range sp.guide {
		t := float64(j) * total / float64(len(cum))
		for i < len(cum) && cum[i] < t {
			i++
		}
		sp.guide[j] = int32(i)
	}
	return sp
}

// search returns sort.SearchFloat64s(sp.cum, target), clamped to the
// last segment: the first index whose cumulative length reaches target.
// The guide entry is only a starting point; the two scans move it to
// that index whatever rounding put it on the wrong side.
func (sp *segmentPicker) search(target float64) int {
	i := int(sp.guide[min(int(target*sp.scale), len(sp.guide)-1)])
	for i > 0 && sp.cum[i-1] >= target {
		i--
	}
	for i < len(sp.cum) && sp.cum[i] < target {
		i++
	}
	return min(i, len(sp.cum)-1)
}

// pick returns a random point near a length-weighted random segment,
// offset perpendicular to it by a N(0, sigma) distance.
func (sp *segmentPicker) pick(rng *rand.Rand, sigma float64) geo.Point {
	target := rng.Float64() * sp.cum[len(sp.cum)-1]
	return pointNearSegment(sp.net.Segment(network.SegmentID(sp.search(target))), rng, sigma)
}

// pointNearSegment returns a point at a uniform position along the
// segment, displaced perpendicular by N(0, sigma).
func pointNearSegment(seg *network.Segment, rng *rand.Rand, sigma float64) geo.Point {
	g := seg.Geom
	t := rng.Float64()
	x := g.A.X + t*(g.B.X-g.A.X)
	y := g.A.Y + t*(g.B.Y-g.A.Y)
	l := seg.Length()
	var nx, ny float64
	if l > 0 {
		nx = -(g.B.Y - g.A.Y) / l
		ny = (g.B.X - g.A.X) / l
	} else {
		nx, ny = 1, 0
	}
	off := rng.NormFloat64() * sigma
	return geo.Pt(x+nx*off, y+ny*off)
}

// keywordArena cuts keyword sets from shared chunks instead of giving
// each POI or photo its own allocation. A set is collected at the end of
// the current chunk, sorted and deduplicated in place by vocab.NewSet,
// and capped at its length, so an append to it copies instead of
// reaching the next set's ids.
type keywordArena struct {
	buf   []vocab.ID
	start int
}

// arenaChunk is the number of ids one chunk holds.
const arenaChunk = 1 << 14

// begin starts a set of at most n ids.
func (a *keywordArena) begin(n int) {
	if cap(a.buf)-len(a.buf) < n {
		a.buf = make([]vocab.ID, 0, max(arenaChunk, n))
	}
	a.start = len(a.buf)
}

// add appends an id to the set begun last.
func (a *keywordArena) add(ids ...vocab.ID) { a.buf = append(a.buf, ids...) }

// set returns the set begun last and gives its duplicates' slots back.
func (a *keywordArena) set() vocab.Set {
	s := vocab.NewSet(a.buf[a.start:])
	a.buf = a.buf[:a.start+len(s)]
	return s[:len(s):len(s)]
}

// buildPOIs places background POIs along every street and dense "shop"
// POIs along the planted site streets. The returned prestige slice holds
// the per-POI importance weight of the ratings/check-ins model; the
// corpus itself is unweighted.
func buildPOIs(p Profile, net *network.Network, dict *vocab.Dictionary, rng *rand.Rand) (*poi.Corpus, []float64) {
	pb := poi.NewBuilder(dict)
	picker := newSegmentPicker(net)

	catIDs := make([]vocab.ID, len(p.Categories))
	for i, c := range p.Categories {
		catIDs[i] = dict.Intern(c.Name)
	}
	shopID := dict.Intern("shop")
	noiseIDs := make([]vocab.ID, len(noiseWords))
	for i, wd := range noiseWords {
		noiseIDs[i] = dict.Intern(wd)
	}

	// Planted shop POIs: per site street, shops per unit length scaled by
	// the site density. The base rate is chosen so the planted streets
	// clearly dominate the background shop density.
	const shopsPerKm = 160.0 // at density 1.0
	kmPerDeg := 1 / (1000 * degPerMeter)
	// Room for the background and a quarter more than the planted
	// shops' expected count, so that the corpus is not copied as it grows.
	var planted float64
	for _, site := range p.ShopSites {
		for _, name := range site.Streets {
			if st := net.StreetByName(name); st != nil {
				planted += shopsPerKm * site.Density * st.Length() * kmPerDeg
			}
		}
	}
	room := p.NumPOIs + int(1.25*planted) + 64
	pb.Grow(room)
	prestige := make([]float64, 0, room)
	var arena keywordArena

	// Background POIs.
	for i := 0; i < p.NumPOIs; i++ {
		loc := picker.pick(rng, p.POIOffsetSigma)
		arena.begin(len(p.Categories) + 2)
		for ci, c := range p.Categories {
			if rng.Float64() < c.Prob {
				arena.add(catIDs[ci])
			}
		}
		if rng.Float64() < p.ShopBaseProb {
			arena.add(shopID)
		}
		// Every POI carries one long-tail word so cells always have text.
		arena.add(noiseIDs[rng.Intn(len(noiseIDs))])
		pb.AddSet(loc, arena.set(), 1)
		prestige = append(prestige, 1)
	}

	for _, site := range p.ShopSites {
		weight := site.Prestige
		if weight == 0 {
			weight = 1
		}
		for _, name := range site.Streets {
			st := net.StreetByName(name)
			if st == nil {
				continue
			}
			for _, sid := range st.Segments {
				seg := net.Segment(sid)
				mean := shopsPerKm * site.Density * seg.Length() * kmPerDeg
				n := poissonish(rng, mean)
				for j := 0; j < n; j++ {
					loc := pointNearSegment(seg, rng, p.POIOffsetSigma*0.6)
					arena.begin(3)
					arena.add(shopID, noiseIDs[rng.Intn(len(noiseIDs))])
					if rng.Float64() < 0.3 {
						arena.add(catIDs[minIntDG(2, len(catIDs)-1)]) // often also "food"
					}
					pb.AddSet(loc, arena.set(), 1)
					prestige = append(prestige, weight)
				}
			}
		}
	}
	return pb.Build(), prestige
}

// poissonish draws an integer with the given mean: a Poisson sampled by
// inversion for small means, a rounded normal for large ones.
func poissonish(rng *rand.Rand, mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 30 {
		v := int(mean + rng.NormFloat64()*math.Sqrt(mean) + 0.5)
		if v < 0 {
			v = 0
		}
		return v
	}
	l := math.Exp(-mean)
	k, p := 0, 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
		if k > 1000 {
			return k
		}
	}
}

func minIntDG(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// buildPhotos scatters background photos along the network and builds the
// hotspot workload around the designated photo street: near-duplicate
// bursts (the Figure 3(a) failure mode), an event tag burst (Figure 3(b)),
// and a scattered long tail.
func buildPhotos(p Profile, net *network.Network, dict *vocab.Dictionary, rng *rand.Rand) *photo.Corpus {
	pb := photo.NewBuilder(dict)
	picker := newSegmentPicker(net)

	cityTag := dict.Intern(p.Name)
	streetTag := dict.Intern("street")
	moodIDs := make([]vocab.ID, len(photoMoodWords))
	for i, wd := range photoMoodWords {
		moodIDs[i] = dict.Intern(wd)
	}

	var arena keywordArena

	// Background photos.
	for i := 0; i < p.NumPhotos; i++ {
		loc := picker.pick(rng, p.POIOffsetSigma*2)
		arena.begin(4)
		arena.add(cityTag)
		if rng.Float64() < 0.4 {
			arena.add(streetTag)
		}
		nm := rng.Intn(3)
		for j := 0; j < nm; j++ {
			arena.add(moodIDs[rng.Intn(len(moodIDs))])
		}
		pb.AddSet(loc, arena.set())
	}

	// Photo street workload.
	st := net.StreetByName(p.PhotoStreet)
	if st == nil || p.HotStreetPhotos == 0 {
		return pb.Build()
	}
	segs := st.Segments
	nameTag := dict.Intern(p.PhotoStreet)
	dupTags := [][]vocab.ID{
		{nameTag, dict.Intern("hmv"), dict.Intern("storefront"), dict.Intern("release")},
		{nameTag, dict.Intern("flagship"), dict.Intern("window"), dict.Intern("display")},
		{nameTag, dict.Intern("corner"), dict.Intern("landmark")},
	}
	eventTags := []vocab.ID{nameTag, dict.Intern("demo"), dict.Intern("protest"), dict.Intern("march"), dict.Intern("banner")}

	nDup := p.HotStreetPhotos * 35 / 100
	nEvent := p.HotStreetPhotos * 25 / 100
	nTail := p.HotStreetPhotos - nDup - nEvent

	// Near-duplicate bursts at fixed spots.
	spotSegs := make([]network.SegmentID, len(dupTags))
	for i := range spotSegs {
		spotSegs[i] = segs[rng.Intn(len(segs))]
	}
	for i := 0; i < nDup; i++ {
		spot := i % len(dupTags)
		g := net.Segment(spotSegs[spot]).Geom
		c := g.Midpoint()
		loc := geo.Pt(c.X+rng.NormFloat64()*2*degPerMeter, c.Y+rng.NormFloat64()*2*degPerMeter)
		arena.begin(len(dupTags[spot]))
		arena.add(dupTags[spot]...)
		pb.AddSet(loc, arena.set())
	}
	// Event burst spread along the street.
	for i := 0; i < nEvent; i++ {
		seg := net.Segment(segs[rng.Intn(len(segs))])
		loc := pointNearSegment(seg, rng, 8*degPerMeter)
		arena.begin(len(eventTags) + 1)
		arena.add(eventTags...)
		if rng.Float64() < 0.5 {
			arena.add(moodIDs[rng.Intn(len(moodIDs))])
		}
		pb.AddSet(loc, arena.set())
	}
	// Long tail along the street.
	for i := 0; i < nTail; i++ {
		seg := net.Segment(segs[rng.Intn(len(segs))])
		loc := pointNearSegment(seg, rng, 15*degPerMeter)
		arena.begin(6)
		arena.add(nameTag, cityTag)
		nm := 1 + rng.Intn(3)
		for j := 0; j < nm; j++ {
			arena.add(moodIDs[rng.Intn(len(moodIDs))])
		}
		if rng.Float64() < 0.2 {
			arena.add(dict.Intern("construction"))
		}
		pb.AddSet(loc, arena.set())
	}
	return pb.Build()
}
