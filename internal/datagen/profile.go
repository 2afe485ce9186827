// Package datagen is the data substrate of the reproduction. The paper
// evaluates on road networks, POIs and photos crawled from OpenStreetMap,
// DBpedia, Wikimapia, Foursquare, Flickr and Panoramio for London, Berlin
// and Vienna; those crawls are not redistributable, so this package
// generates synthetic cities that preserve the statistics the algorithms
// are sensitive to:
//
//   - segment counts and the skewed segment-length distribution of
//     Table 1 (sub-meter breakpoint slivers up to multi-km arterials);
//   - per-keyword POI prevalences calibrated to the relevant-POI counts
//     of Table 4;
//   - planted high-density "shopping sites" that stand in for the
//     authoritative shopping-street lists of Table 2 (the Berlin profile
//     plants the streets of the paper's Table 2 by name);
//   - photo hotspots with near-duplicate bursts and tag bursts — the two
//     failure modes of Figure 3 — around a designated photo street whose
//     ε-neighborhood photo count matches the paper's Section 5.2.2
//     workload sizes.
//
// All generation is deterministic given the profile seed.
package datagen

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/geo"
)

// CategorySpec assigns a keyword category to POIs with a probability.
type CategorySpec struct {
	Name string
	Prob float64
}

// SiteSpec plants one shopping site: a cluster of named streets around a
// center, with a site-specific density of "shop" POIs per street meter.
type SiteSpec struct {
	// Streets are renamed onto generated streets nearest to Center, in
	// the given order.
	Streets []string
	// Center is the site location within the city extent (fractions of
	// the extent, each in [0,1]).
	Center geo.Point
	// Density scales the shop-POI placement rate along the site streets;
	// higher density ranks the site's streets higher.
	Density float64
	// Prestige is the importance weight of the site's shop POIs (0 means
	// the default 1). It models the ratings/check-ins metadata the paper
	// suggests for weighting POIs: a luxury street has few shops, each
	// highly rated.
	Prestige float64
}

// Profile parameterizes one synthetic city.
type Profile struct {
	Name   string
	Extent geo.Rect
	Seed   int64

	// Road network shape.
	AvenuesH, AvenuesV int     // long grid avenues spanning the extent
	Diagonals          int     // diagonal arterials
	AvenueSegLen       float64 // target avenue segment length (degrees)
	LocalStreets       int     // short side streets
	LocalSegMin        int     // min segments per local street
	LocalSegMax        int     // max segments per local street
	LocalSegLen        float64 // target local segment length (degrees)

	// POI layer.
	NumPOIs        int
	POIOffsetSigma float64 // perpendicular scatter around streets (degrees)
	Categories     []CategorySpec
	ShopBaseProb   float64 // background "shop" keyword probability

	// Planted shopping sites and their two "authoritative" source lists.
	ShopSites   []SiteSpec
	SourceLists [2][]string

	// Photo layer.
	NumPhotos       int    // background photos scattered near streets
	HotStreetPhotos int    // photos around the designated photo street
	PhotoStreet     string // name of the photo street (must be planted)
}

// degPerMeter approximates one meter in coordinate degrees (the paper
// works at European latitudes where 0.0005° ≈ 55 m).
const degPerMeter = 0.0005 / 55

// London returns the London-like profile: the largest city of Table 1
// (113,885 segments, 2,114,264 POIs; segment lengths 0.93 m – 5,834 m).
func London() Profile {
	return Profile{
		Name:   "London",
		Extent: geo.R(0, 0, 0.50, 0.40),
		Seed:   1,

		AvenuesH:     72,
		AvenuesV:     90,
		Diagonals:    24,
		AvenueSegLen: 0.0020,
		LocalStreets: 9000,
		LocalSegMin:  2,
		LocalSegMax:  12,
		LocalSegLen:  0.0012,

		NumPOIs:        2_114_264,
		POIOffsetSigma: 30 * degPerMeter,
		Categories: []CategorySpec{
			{Name: "religion", Prob: 0.00494},
			{Name: "education", Prob: 0.01052},
			{Name: "food", Prob: 0.03809},
			{Name: "services", Prob: 0.04206},
			{Name: "museum", Prob: 0.004},
			{Name: "park", Prob: 0.006},
			{Name: "hotel", Prob: 0.009},
		},
		ShopBaseProb: 0.013,

		ShopSites: []SiteSpec{
			{
				Streets: []string{"Oxford Street", "Regent Street", "Bond Street", "Carnaby Street"},
				Center:  geo.Pt(0.48, 0.52),
				Density: 1.0,
			},
			{
				Streets: []string{"Knightsbridge", "Sloane Street"},
				Center:  geo.Pt(0.38, 0.45),
				Density: 0.55,
			},
			{
				Streets: []string{"Covent Garden", "Neal Street"},
				Center:  geo.Pt(0.55, 0.50),
				Density: 0.45,
			},
			{
				Streets: []string{"Kings Road"},
				Center:  geo.Pt(0.33, 0.38),
				Density: 0.3,
			},
		},
		SourceLists: [2][]string{
			{"Oxford Street", "Regent Street", "Bond Street", "Knightsbridge", "Kings Road"},
			{"Oxford Street", "Regent Street", "Carnaby Street", "Covent Garden", "Sloane Street"},
		},

		NumPhotos:       120_000,
		HotStreetPhotos: 6_300,
		PhotoStreet:     "Oxford Street",
	}
}

// Berlin returns the Berlin-like profile (47,755 segments, 797,244 POIs),
// planting the streets of the paper's Table 2 by name: four shopping
// sites near Alte/Neue Schönhauser Straße, Kurfürstendamm, Friedrichstraße
// and Potsdamer Platz. The two source lists are the paper's authoritative
// Web sources.
func Berlin() Profile {
	return Profile{
		Name:   "Berlin",
		Extent: geo.R(0, 0, 0.40, 0.30),
		Seed:   2,

		AvenuesH:     48,
		AvenuesV:     56,
		Diagonals:    16,
		AvenueSegLen: 0.0022,
		LocalStreets: 4200,
		LocalSegMin:  2,
		LocalSegMax:  10,
		LocalSegLen:  0.0013,

		NumPOIs:        797_244,
		POIOffsetSigma: 30 * degPerMeter,
		Categories: []CategorySpec{
			{Name: "religion", Prob: 0.00247},
			{Name: "education", Prob: 0.01071},
			{Name: "food", Prob: 0.04697},
			{Name: "services", Prob: 0.03808},
			{Name: "museum", Prob: 0.004},
			{Name: "park", Prob: 0.007},
			{Name: "hotel", Prob: 0.008},
		},
		ShopBaseProb: 0.012,

		ShopSites: []SiteSpec{
			{
				// The paper's top-ranked site: dense little shops.
				Streets: []string{
					"Neue Schönhauser Straße", "Rosenthaler Straße", "Münzstraße",
					"Mulackstraße", "Alte Schönhauser Straße", "Weinmeisterstraße",
				},
				Center:  geo.Pt(0.60, 0.62),
				Density: 1.0,
			},
			{
				// Friedrichstraße with the Mäusetunnel pedestrian tunnel.
				Streets: []string{"Friedrichstraße", "Mäusetunnel"},
				Center:  geo.Pt(0.52, 0.50),
				Density: 1.3,
			},
			{
				// Tauentzienstraße: the dense end of the Kurfürstendamm
				// shopping site (the paper ranks it 10th).
				Streets: []string{"Tauentzienstraße"},
				Center:  geo.Pt(0.31, 0.41),
				Density: 1.05,
			},
			{
				// Potsdamer Platz: a mall on a square.
				Streets: []string{"Potsdamer Platz Arkaden", "Potsdamer Platz"},
				Center:  geo.Pt(0.45, 0.45),
				Density: 0.95,
			},
			{
				// Kurfürstendamm proper: big luxury brands, lower shop
				// density — the paper observes it ranks in the top-20 but
				// not the top-10.
				Streets:  []string{"Kurfürstendamm", "Fasanenstraße"},
				Center:   geo.Pt(0.29, 0.39),
				Density:  0.45,
				Prestige: 3, // few shops, big luxury brands (paper §5.1.1)
			},
		},
		SourceLists: [2][]string{
			// TripAdvisor-like source (paper's Source #1).
			{"Tauentzienstraße", "Fasanenstraße", "Friedrichstraße", "Alte Schönhauser Straße", "Münzstraße"},
			// GlobalBlue-like source (paper's Source #2).
			{"Kurfürstendamm", "Tauentzienstraße", "Potsdamer Platz", "Friedrichstraße", "Neue Schönhauser Straße"},
		},

		NumPhotos:       26_000,
		HotStreetPhotos: 700,
		PhotoStreet:     "Neue Schönhauser Straße",
	}
}

// Vienna returns the Vienna-like profile (22,211 segments, 408,712 POIs).
func Vienna() Profile {
	return Profile{
		Name:   "Vienna",
		Extent: geo.R(0, 0, 0.30, 0.22),
		Seed:   3,

		AvenuesH:     30,
		AvenuesV:     36,
		Diagonals:    10,
		AvenueSegLen: 0.0024,
		LocalStreets: 1900,
		LocalSegMin:  2,
		LocalSegMax:  10,
		LocalSegLen:  0.0014,

		NumPOIs:        408_712,
		POIOffsetSigma: 30 * degPerMeter,
		Categories: []CategorySpec{
			{Name: "religion", Prob: 0.00411},
			{Name: "education", Prob: 0.01464},
			{Name: "food", Prob: 0.04413},
			{Name: "services", Prob: 0.03863},
			{Name: "museum", Prob: 0.005},
			{Name: "park", Prob: 0.006},
			{Name: "hotel", Prob: 0.010},
		},
		ShopBaseProb: 0.013,

		ShopSites: []SiteSpec{
			{
				Streets: []string{"Mariahilfer Straße", "Neubaugasse"},
				Center:  geo.Pt(0.45, 0.50),
				Density: 1.0,
			},
			{
				Streets: []string{"Kärntner Straße", "Graben", "Kohlmarkt"},
				Center:  geo.Pt(0.55, 0.55),
				Density: 0.75,
			},
			{
				Streets: []string{"Landstraßer Hauptstraße"},
				Center:  geo.Pt(0.65, 0.45),
				Density: 0.4,
			},
			{
				Streets: []string{"Favoritenstraße"},
				Center:  geo.Pt(0.50, 0.30),
				Density: 0.35,
			},
		},
		SourceLists: [2][]string{
			{"Mariahilfer Straße", "Kärntner Straße", "Graben", "Kohlmarkt", "Favoritenstraße"},
			{"Mariahilfer Straße", "Kärntner Straße", "Graben", "Neubaugasse", "Landstraßer Hauptstraße"},
		},

		NumPhotos:       30_000,
		HotStreetPhotos: 1_450,
		PhotoStreet:     "Mariahilfer Straße",
	}
}

// Profiles returns the three city profiles in the paper's order.
func Profiles() []Profile {
	return []Profile{London(), Berlin(), Vienna()}
}

// ProfileByName returns the profile a tool's -city flag names, case
// insensitive: london, berlin, vienna, or small (Small with seed 1).
func ProfileByName(name string) (Profile, error) {
	switch strings.ToLower(name) {
	case "london":
		return London(), nil
	case "berlin":
		return Berlin(), nil
	case "vienna":
		return Vienna(), nil
	case "small":
		return Small(1), nil
	default:
		return Profile{}, fmt.Errorf("unknown city %q", name)
	}
}

// Small returns a scaled-down city for tests and examples: the Berlin
// street plan with a few thousand POIs. It generates in milliseconds.
func Small(seed int64) Profile {
	p := Berlin()
	p.Name = "Smallville"
	p.Seed = seed
	p.Extent = geo.R(0, 0, 0.08, 0.06)
	p.AvenuesH, p.AvenuesV, p.Diagonals = 8, 10, 3
	p.LocalStreets = 150
	p.NumPOIs = 6_000
	p.NumPhotos = 1_200
	p.HotStreetPhotos = 250
	return p
}

// Tiny returns a miniature city for the correctness harness: a handful of
// avenues, a few dozen local streets and a few hundred POIs, small enough
// that the brute-force oracle (pairwise point-to-segment distances over
// every POI × segment pair) evaluates in microseconds, yet large enough to
// exercise multi-cell segments, street ties and planted-density skew.
// soicheck sweeps hundreds of Tiny seeds per run.
func Tiny(seed int64) Profile {
	p := Small(seed)
	p.Name = "Tinytown"
	p.Extent = geo.R(0, 0, 0.02, 0.016)
	p.AvenuesH, p.AvenuesV, p.Diagonals = 3, 4, 1
	p.LocalStreets = 24
	p.NumPOIs = 320
	p.NumPhotos = 160
	p.HotStreetPhotos = 60
	// One planted site is enough for skew; keep the densest Berlin site and
	// the luxury (weighted) site so both code paths stay covered.
	p.ShopSites = []SiteSpec{
		{
			Streets: []string{"Neue Schönhauser Straße", "Münzstraße"},
			Center:  geo.Pt(0.60, 0.62),
			Density: 1.0,
		},
		{
			Streets:  []string{"Kurfürstendamm"},
			Center:   geo.Pt(0.29, 0.39),
			Density:  0.45,
			Prestige: 3,
		},
	}
	p.SourceLists = [2][]string{
		{"Neue Schönhauser Straße", "Münzstraße"},
		{"Kurfürstendamm", "Neue Schönhauser Straße"},
	}
	p.PhotoStreet = "Neue Schönhauser Straße"
	return p
}

// Scale returns the profile with its data volume multiplied by f while
// preserving spatial density (the property the algorithms are sensitive
// to): the city extent and the avenue counts shrink by √f, so street
// spacing, POIs-per-area and segment lengths stay constant, and total
// segment/POI/photo counts scale by ≈f. Used to size benchmark runs.
func Scale(p Profile, f float64) Profile {
	if f == 1 {
		return p
	}
	lin := math.Sqrt(f)
	scaleBy := func(n int, factor float64) int {
		v := int(float64(n) * factor)
		if v < 1 && n > 0 {
			v = 1
		}
		return v
	}
	p.Extent = geo.R(
		p.Extent.MinX, p.Extent.MinY,
		p.Extent.MinX+p.Extent.Width()*lin,
		p.Extent.MinY+p.Extent.Height()*lin,
	)
	p.AvenuesH = scaleBy(p.AvenuesH, lin)
	p.AvenuesV = scaleBy(p.AvenuesV, lin)
	p.Diagonals = scaleBy(p.Diagonals, lin)
	p.LocalStreets = scaleBy(p.LocalStreets, f)
	p.NumPOIs = scaleBy(p.NumPOIs, f)
	p.NumPhotos = scaleBy(p.NumPhotos, f)
	p.HotStreetPhotos = scaleBy(p.HotStreetPhotos, f)
	return p
}
