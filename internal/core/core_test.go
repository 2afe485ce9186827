package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/geo"
	"repro/internal/network"
	"repro/internal/poi"
)

// buildFixture creates a small deterministic scenario:
//
//	High St   — 2 segments along y=0 from x=0..2, dense shop POIs
//	Low St    — 1 segment along y=1 from x=0..1, one shop POI
//	Empty St  — 1 segment along y=3, no relevant POIs
func buildFixture(t *testing.T) *Index {
	t.Helper()
	nb := network.NewBuilder()
	nb.AddStreet("High St", []geo.Point{geo.Pt(0, 0), geo.Pt(1, 0), geo.Pt(2, 0)})
	nb.AddStreet("Low St", []geo.Point{geo.Pt(0, 1), geo.Pt(1, 1)})
	nb.AddStreet("Empty St", []geo.Point{geo.Pt(0, 3), geo.Pt(1, 3)})
	net, err := nb.Build()
	if err != nil {
		t.Fatal(err)
	}
	pb := poi.NewBuilder(nil)
	// Dense shops along High St's first segment.
	pb.Add(geo.Pt(0.1, 0.05), []string{"shop"})
	pb.Add(geo.Pt(0.3, -0.05), []string{"shop", "clothes"})
	pb.Add(geo.Pt(0.6, 0.02), []string{"shop"})
	pb.Add(geo.Pt(0.9, 0.01), []string{"shop"})
	// One shop near Low St.
	pb.Add(geo.Pt(0.5, 1.05), []string{"shop"})
	// Irrelevant POIs near Empty St.
	pb.Add(geo.Pt(0.5, 3.01), []string{"museum"})
	pb.Add(geo.Pt(0.7, 3.02), []string{"park"})
	ix, err := NewIndex(net, pb.Build(), IndexConfig{CellSize: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func TestQueryValidate(t *testing.T) {
	tests := []struct {
		name string
		q    Query
		ok   bool
	}{
		{"valid", Query{Keywords: []string{"shop"}, K: 1, Epsilon: 0.1}, true},
		{"no keywords", Query{K: 1, Epsilon: 0.1}, false},
		{"zero k", Query{Keywords: []string{"x"}, Epsilon: 0.1}, false},
		{"negative eps", Query{Keywords: []string{"x"}, K: 1, Epsilon: -1}, false},
		{"zero eps", Query{Keywords: []string{"x"}, K: 1}, false},
		{"NaN eps", Query{Keywords: []string{"x"}, K: 1, Epsilon: math.NaN()}, false},
		{"+Inf eps", Query{Keywords: []string{"x"}, K: 1, Epsilon: math.Inf(1)}, false},
		{"-Inf eps", Query{Keywords: []string{"x"}, K: 1, Epsilon: math.Inf(-1)}, false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.q.Validate(); (err == nil) != tc.ok {
				t.Errorf("Validate = %v, ok=%v", err, tc.ok)
			}
		})
	}
}

func TestInterestFormula(t *testing.T) {
	// mass=10, len=2, eps=0.5: area = 2*0.5*2 + π*0.25.
	got := Interest(10, 2, 0.5)
	want := 10 / (2 + math.Pi*0.25)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("Interest = %v, want %v", got, want)
	}
	// Zero-length segment still has the πε² disk area.
	if got := Interest(1, 0, 0.5); math.Abs(got-1/(math.Pi*0.25)) > 1e-12 {
		t.Fatalf("zero-length Interest = %v", got)
	}
}

func TestNewIndexErrors(t *testing.T) {
	nb := network.NewBuilder()
	nb.AddStreet("s", []geo.Point{geo.Pt(0, 0), geo.Pt(1, 0)})
	net, _ := nb.Build()
	if _, err := NewIndex(net, poi.NewBuilder(nil).Build(), IndexConfig{CellSize: 0}); err == nil {
		t.Fatal("expected error for zero cell size")
	}
}

func TestSegmentMassFixture(t *testing.T) {
	ix := buildFixture(t)
	query, _ := ix.POIs().Dict().LookupAll([]string{"shop"})
	// Segment 0 = High St x∈[0,1]: all 4 shops are within ε=0.1 of it.
	if got := ix.SegmentMass(0, query, 0.1); got != 4 {
		t.Fatalf("segment 0 mass = %v, want 4", got)
	}
	// Segment 1 = High St x∈[1,2]: no shop within 0.1 horizontally past x=1.
	// POI at x=0.9 is within 0.1 of segment start (1,0): dist = hypot(0.1, 0.01) > 0.1.
	if got := ix.SegmentMass(1, query, 0.1); got != 0 {
		t.Fatalf("segment 1 mass = %v, want 0", got)
	}
	// Larger ε picks it up.
	if got := ix.SegmentMass(1, query, 0.2); got != 1 {
		t.Fatalf("segment 1 mass at eps 0.2 = %v, want 1", got)
	}
	// Low St segment: one shop at dist 0.05.
	low := ix.Network().StreetByName("Low St")
	if got := ix.SegmentMass(low.Segments[0], query, 0.1); got != 1 {
		t.Fatalf("Low St mass = %v, want 1", got)
	}
}

func TestSOIFixtureRanking(t *testing.T) {
	ix := buildFixture(t)
	res, stats, err := ix.SOI(Query{Keywords: []string{"shop"}, K: 2, Epsilon: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("got %d results, want 2", len(res))
	}
	if res[0].Name != "High St" || res[1].Name != "Low St" {
		t.Fatalf("ranking = %q, %q", res[0].Name, res[1].Name)
	}
	if res[0].Interest <= res[1].Interest {
		t.Fatalf("interests not descending: %v %v", res[0].Interest, res[1].Interest)
	}
	if res[0].Mass != 4 {
		t.Fatalf("High St best mass = %v", res[0].Mass)
	}
	if stats.Total() < 0 {
		t.Fatal("negative total time")
	}
}

func TestSOIExcludesZeroInterest(t *testing.T) {
	ix := buildFixture(t)
	res, _, err := ix.SOI(Query{Keywords: []string{"shop"}, K: 10, Epsilon: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.Interest <= 0 {
			t.Fatalf("zero-interest street %q reported", r.Name)
		}
		if r.Name == "Empty St" {
			t.Fatal("Empty St reported")
		}
	}
}

func TestSOIMultiKeyword(t *testing.T) {
	ix := buildFixture(t)
	res, _, err := ix.SOI(Query{Keywords: []string{"museum", "park"}, K: 3, Epsilon: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Name != "Empty St" {
		t.Fatalf("multi-keyword results = %+v", res)
	}
	// Both POIs near Empty St match (union semantics, each counted once).
	if res[0].Mass != 2 {
		t.Fatalf("Empty St mass = %v, want 2", res[0].Mass)
	}
}

func TestSOIDuplicateCountedOnce(t *testing.T) {
	// A POI carrying both query keywords must be counted once.
	nb := network.NewBuilder()
	nb.AddStreet("s", []geo.Point{geo.Pt(0, 0), geo.Pt(1, 0)})
	net, _ := nb.Build()
	pb := poi.NewBuilder(nil)
	pb.Add(geo.Pt(0.5, 0.01), []string{"shop", "food"})
	ix, err := NewIndex(net, pb.Build(), IndexConfig{CellSize: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := ix.SOI(Query{Keywords: []string{"shop", "food"}, K: 1, Epsilon: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Mass != 1 {
		t.Fatalf("results = %+v, want mass 1", res)
	}
}

func TestSOIUnknownKeywords(t *testing.T) {
	ix := buildFixture(t)
	res, _, err := ix.SOI(Query{Keywords: []string{"zeppelin"}, K: 3, Epsilon: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Fatalf("unknown keyword returned %d results", len(res))
	}
}

func TestSOIBadQuery(t *testing.T) {
	ix := buildFixture(t)
	if _, _, err := ix.SOI(Query{}); err == nil {
		t.Fatal("expected error")
	}
	if _, _, err := ix.Baseline(Query{}); err == nil {
		t.Fatal("expected error")
	}
	if _, err := ix.AllSegmentInterests(Query{}); err == nil {
		t.Fatal("expected error")
	}
}

func TestBaselineMatchesFixture(t *testing.T) {
	ix := buildFixture(t)
	q := Query{Keywords: []string{"shop"}, K: 2, Epsilon: 0.1}
	bl, _, err := ix.Baseline(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(bl) != 2 || bl[0].Name != "High St" || bl[1].Name != "Low St" {
		t.Fatalf("baseline = %+v", bl)
	}
}

func TestWeightedMass(t *testing.T) {
	nb := network.NewBuilder()
	nb.AddStreet("s", []geo.Point{geo.Pt(0, 0), geo.Pt(1, 0)})
	net, _ := nb.Build()
	pb := poi.NewBuilder(nil)
	pb.AddWeighted(geo.Pt(0.5, 0.01), []string{"shop"}, 3)
	pb.AddWeighted(geo.Pt(0.6, 0.01), []string{"shop"}, 0.5)
	ix, err := NewIndex(net, pb.Build(), IndexConfig{CellSize: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	q := Query{Keywords: []string{"shop"}, K: 1, Epsilon: 0.1}
	res, _, err := ix.SOI(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || math.Abs(res[0].Mass-3.5) > 1e-12 {
		t.Fatalf("weighted results = %+v, want mass 3.5", res)
	}
	bl, _, _ := ix.Baseline(q)
	if math.Abs(bl[0].Mass-res[0].Mass) > 1e-12 {
		t.Fatalf("baseline weighted mass %v != SOI %v", bl[0].Mass, res[0].Mass)
	}
}

// randomScenario builds a random network + POI corpus for equivalence
// testing.
func randomScenario(rng *rand.Rand) *Index {
	nb := network.NewBuilder()
	nStreets := rng.Intn(15) + 3
	for s := 0; s < nStreets; s++ {
		nPts := rng.Intn(4) + 2
		pts := make([]geo.Point, nPts)
		x, y := rng.Float64()*10, rng.Float64()*10
		pts[0] = geo.Pt(x, y)
		for i := 1; i < nPts; i++ {
			x += rng.NormFloat64()
			y += rng.NormFloat64()
			pts[i] = geo.Pt(x, y)
		}
		nb.AddStreet("street", pts)
	}
	net, err := nb.Build()
	if err != nil {
		panic(err)
	}
	kws := []string{"shop", "food", "museum", "park", "school"}
	pb := poi.NewBuilder(nil)
	nPOIs := rng.Intn(200) + 20
	for i := 0; i < nPOIs; i++ {
		var tags []string
		for _, kw := range kws {
			if rng.Float64() < 0.3 {
				tags = append(tags, kw)
			}
		}
		pb.Add(geo.Pt(rng.Float64()*10, rng.Float64()*10), tags)
	}
	ix, err := NewIndex(net, pb.Build(), IndexConfig{CellSize: 0.3 + rng.Float64()*0.5})
	if err != nil {
		panic(err)
	}
	return ix
}

// exhaustiveTopK derives the top-k street interests directly from the
// per-segment oracle.
func exhaustiveTopK(t *testing.T, ix *Index, q Query) []StreetResult {
	t.Helper()
	ints, err := ix.AllSegmentInterests(q)
	if err != nil {
		t.Fatal(err)
	}
	masses := make([]float64, len(ints))
	query, _ := ix.POIs().Dict().LookupAll(q.Keywords)
	for sid := range masses {
		masses[sid] = ix.SegmentMass(network.SegmentID(sid), query, q.Epsilon)
	}
	out := aggregateStreets(ix.Network(), masses, q.Epsilon, MaxSegment)
	if len(out) > q.K {
		out = out[:q.K]
	}
	return out
}

// TestSOIEquivalence is the central correctness property: on random
// scenarios, SOI, BL and the exhaustive oracle agree on the ranked
// interest values, and agree on street identity wherever interests are
// untied.
func TestSOIEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	queries := [][]string{{"shop"}, {"shop", "food"}, {"museum", "park", "school"}}
	for trial := 0; trial < 40; trial++ {
		ix := randomScenario(rng)
		for _, kws := range queries {
			q := Query{
				Keywords: kws,
				K:        rng.Intn(6) + 1,
				Epsilon:  0.05 + rng.Float64()*0.8,
			}
			soi, _, err := ix.SOI(q)
			if err != nil {
				t.Fatal(err)
			}
			bl, _, err := ix.Baseline(q)
			if err != nil {
				t.Fatal(err)
			}
			oracle := exhaustiveTopK(t, ix, q)
			compareResults(t, "SOI vs oracle", soi, oracle)
			compareResults(t, "BL vs oracle", bl, oracle)
		}
	}
}

// compareResults requires identical ranked interest sequences and, where
// an interest value is unique within the list, identical street ids.
func compareResults(t *testing.T, label string, got, want []StreetResult) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d\n got: %+v\nwant: %+v", label, len(got), len(want), got, want)
	}
	for i := range got {
		if math.Abs(got[i].Interest-want[i].Interest) > 1e-9*(1+want[i].Interest) {
			t.Fatalf("%s: rank %d interest %v, want %v", label, i, got[i].Interest, want[i].Interest)
		}
	}
	for i := range got {
		unique := true
		for j := range want {
			if j != i && math.Abs(want[j].Interest-want[i].Interest) < 1e-12 {
				unique = false
				break
			}
		}
		if unique && got[i].Street != want[i].Street {
			t.Fatalf("%s: rank %d street %d, want %d", label, i, got[i].Street, want[i].Street)
		}
	}
}

// TestSOIPrunes verifies the point of the algorithm: on a scenario with a
// clear hotspot, SOI terminates without finalizing every segment.
func TestSOIPrunes(t *testing.T) {
	nb := network.NewBuilder()
	// One hot street and many cold ones.
	nb.AddStreet("hot", []geo.Point{geo.Pt(0, 0), geo.Pt(1, 0)})
	for i := 1; i <= 50; i++ {
		y := float64(i)
		nb.AddStreet("cold", []geo.Point{geo.Pt(0, y), geo.Pt(1, y)})
	}
	net, _ := nb.Build()
	pb := poi.NewBuilder(nil)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 100; i++ {
		pb.Add(geo.Pt(rng.Float64(), rng.NormFloat64()*0.02), []string{"shop"})
	}
	// Sparse relevant POIs elsewhere.
	for i := 1; i <= 50; i += 5 {
		pb.Add(geo.Pt(0.5, float64(i)+0.01), []string{"shop"})
	}
	ix, err := NewIndex(net, pb.Build(), IndexConfig{CellSize: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	res, stats, err := ix.SOI(Query{Keywords: []string{"shop"}, K: 1, Epsilon: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Name != "hot" {
		t.Fatalf("results = %+v", res)
	}
	if stats.SegmentsSeen >= stats.TotalSegments {
		t.Fatalf("no pruning: saw %d of %d segments", stats.SegmentsSeen, stats.TotalSegments)
	}
}

func TestAggregateModes(t *testing.T) {
	ix := buildFixture(t)
	q := Query{Keywords: []string{"shop"}, K: 3, Epsilon: 0.1}
	for _, agg := range []Aggregate{MaxSegment, MeanSegment, TotalDensity} {
		res, _, err := ix.BaselineAggregate(q, agg)
		if err != nil {
			t.Fatalf("%v: %v", agg, err)
		}
		if len(res) == 0 {
			t.Fatalf("%v: empty results", agg)
		}
		for i := 1; i < len(res); i++ {
			if res[i].Interest > res[i-1].Interest {
				t.Fatalf("%v: not sorted", agg)
			}
		}
		if agg.String() == "" {
			t.Fatal("empty aggregate name")
		}
	}
	// MeanSegment penalizes High St (one empty segment) relative to MaxSegment.
	maxRes, _, _ := ix.BaselineAggregate(q, MaxSegment)
	meanRes, _, _ := ix.BaselineAggregate(q, MeanSegment)
	var maxHigh, meanHigh float64
	for _, r := range maxRes {
		if r.Name == "High St" {
			maxHigh = r.Interest
		}
	}
	for _, r := range meanRes {
		if r.Name == "High St" {
			meanHigh = r.Interest
		}
	}
	if meanHigh >= maxHigh {
		t.Fatalf("mean %v should be below max %v for High St", meanHigh, maxHigh)
	}
}

// The ε-plan is the index's one ε-memo: SegmentCells, CellSegments and
// Baseline all read the plan the first of them built.
func TestIndexMemoization(t *testing.T) {
	ix := buildFixture(t)
	a := ix.SegmentCells(0.1)
	plan := ix.plan(0.1)
	if !reflect.DeepEqual(a, ix.SegmentCells(0.1)) {
		t.Fatal("SegmentCells differs between calls")
	}
	ix.CellSegments(0.1, 0)
	if _, _, err := ix.Baseline(Query{Keywords: []string{"shop"}, K: 1, Epsilon: 0.1}); err != nil {
		t.Fatal(err)
	}
	if ix.plan(0.1) != plan || ix.PlanCount() != 1 {
		t.Fatalf("ε-plan rebuilt: %d plans memoized, want the first one only", ix.PlanCount())
	}
}

func TestStatsPhasesPopulated(t *testing.T) {
	ix := buildFixture(t)
	_, stats, err := ix.SOI(Query{Keywords: []string{"shop"}, K: 1, Epsilon: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if stats.TotalSegments != ix.Network().NumSegments() {
		t.Errorf("TotalSegments = %d", stats.TotalSegments)
	}
	if stats.SegmentsSeen == 0 || stats.CellVisits == 0 {
		t.Errorf("work counters empty: %+v", stats)
	}
}

// TestStrategyEquivalence: both access strategies must return the ranked
// interest sequence of the exhaustive per-segment oracle (the paper: "the
// correctness of our method is not affected by the access strategy").
func TestStrategyEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 20; trial++ {
		ix := randomScenario(rng)
		q := Query{
			Keywords: []string{"shop", "food"},
			K:        rng.Intn(5) + 1,
			Epsilon:  0.05 + rng.Float64()*0.5,
		}
		a, _, err := ix.SOIWithStrategy(q, CostAware)
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := ix.SOIWithStrategy(q, RoundRobin)
		if err != nil {
			t.Fatal(err)
		}
		compareResults(t, "cost-aware vs round-robin", a, b)
		compareResults(t, "round-robin vs oracle", b, exhaustiveTopK(t, ix, q))
	}
}

func TestStrategyString(t *testing.T) {
	if CostAware.String() == "" || RoundRobin.String() == "" || Strategy(9).String() == "" {
		t.Fatal("empty strategy name")
	}
}
