package soi

import (
	"errors"
	"math"
	"testing"
)

// fixtureEngine builds a small end-to-end scenario through the public API.
func fixtureEngine(t *testing.T) *Engine {
	t.Helper()
	streets := []StreetInput{
		{Name: "High St", Polyline: []Point{{0, 0}, {0.001, 0}, {0.002, 0}}},
		{Name: "Low St", Polyline: []Point{{0, 0.002}, {0.001, 0.002}}},
		{Name: "Quiet St", Polyline: []Point{{0, 0.005}, {0.001, 0.005}}},
	}
	var pois []POIInput
	// Dense shops along High St.
	for i := 0; i < 8; i++ {
		pois = append(pois, POIInput{
			X: 0.0002 * float64(i), Y: 0.0001,
			Keywords: []string{"shop"},
		})
	}
	// One shop near Low St.
	pois = append(pois, POIInput{X: 0.0005, Y: 0.0021, Keywords: []string{"shop"}})
	// A museum near Quiet St.
	pois = append(pois, POIInput{X: 0.0005, Y: 0.0051, Keywords: []string{"museum"}})

	var photos []PhotoInput
	for i := 0; i < 12; i++ {
		photos = append(photos, PhotoInput{
			X: 0.0002 * float64(i%9), Y: -0.0001,
			Tags: []string{"high", "shopfront"},
		})
	}
	photos = append(photos,
		PhotoInput{X: 0.0018, Y: 0.0001, Tags: []string{"high", "parade", "crowd"}},
		PhotoInput{X: 0.0011, Y: 0.00005, Tags: []string{"construction"}},
	)
	eng, err := NewEngine(streets, pois, photos, Config{})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestEngineCounts(t *testing.T) {
	eng := fixtureEngine(t)
	if eng.NumStreets() != 3 {
		t.Errorf("NumStreets = %d", eng.NumStreets())
	}
	if eng.NumPOIs() != 10 {
		t.Errorf("NumPOIs = %d", eng.NumPOIs())
	}
	if eng.NumPhotos() != 14 {
		t.Errorf("NumPhotos = %d", eng.NumPhotos())
	}
}

func TestTopStreets(t *testing.T) {
	eng := fixtureEngine(t)
	res, err := eng.TopStreets(Query{Keywords: []string{"shop"}, K: 3, Epsilon: 0.0005})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("results = %+v, want High St and Low St only", res)
	}
	if res[0].Name != "High St" || res[1].Name != "Low St" {
		t.Fatalf("ranking = %q, %q", res[0].Name, res[1].Name)
	}
	if res[0].Mass != 8 {
		t.Errorf("High St mass = %v", res[0].Mass)
	}
	if res[0].Interest <= res[1].Interest {
		t.Error("interest not descending")
	}
}

func TestTopStreetsErrors(t *testing.T) {
	eng := fixtureEngine(t)
	if _, err := eng.TopStreets(Query{}); err == nil {
		t.Fatal("expected validation error")
	}
}

func TestDescribeStreet(t *testing.T) {
	eng := fixtureEngine(t)
	sum, err := eng.DescribeStreet("High St", SummaryParams{K: 3, Epsilon: 0.0005})
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Photos) != 3 {
		t.Fatalf("summary = %+v", sum)
	}
	if sum.CandidateCount != 14 {
		t.Errorf("CandidateCount = %d", sum.CandidateCount)
	}
	if sum.Objective <= 0 {
		t.Errorf("Objective = %v", sum.Objective)
	}
	// A balanced summary should not be 3 near-duplicates: at least two
	// distinct tag signatures among the selected photos.
	sig := map[string]bool{}
	for _, p := range sum.Photos {
		key := ""
		for _, tag := range p.Tags {
			key += tag + "|"
		}
		sig[key] = true
	}
	if len(sig) < 2 {
		t.Errorf("summary photos all share one tag signature: %+v", sum.Photos)
	}
}

func TestDescribeStreetErrors(t *testing.T) {
	eng := fixtureEngine(t)
	if _, err := eng.DescribeStreet("Nope St", SummaryParams{K: 3}); !errors.Is(err, ErrUnknownStreet) || !errors.Is(err, ErrNoMatch) {
		t.Fatalf("err = %v", err)
	}
	if _, err := eng.DescribeStreet("Quiet St", SummaryParams{K: 3, Epsilon: 0.0001}); !errors.Is(err, ErrNoPhotos) || !errors.Is(err, ErrNoMatch) {
		t.Fatalf("err = %v", err)
	}
	if _, err := eng.DescribeStreet("High St", SummaryParams{K: -1}); err == nil {
		t.Fatal("expected validation error")
	}
}

// TestDescribeStreetRefusesBadParams: a parameter that is not finite or
// lies outside its range is refused with ErrBadSummaryParams before
// Algorithm 2 sees it. NaN used to pass every range check (it compares
// false against everything) and come back as a NaN objective or a nil
// selection; a negative or NaN ε came back as "no associated photos".
func TestDescribeStreetRefusesBadParams(t *testing.T) {
	eng := fixtureEngine(t)
	nan, inf := math.NaN(), math.Inf(1)
	for name, p := range map[string]SummaryParams{
		"lambda NaN":   {K: 3, Lambda: nan},
		"lambda +Inf":  {K: 3, Lambda: inf},
		"lambda < 0":   {K: 3, Lambda: -0.1},
		"lambda > 1":   {K: 3, Lambda: 1.5},
		"w NaN":        {K: 3, W: nan},
		"w -Inf":       {K: 3, W: math.Inf(-1)},
		"w > 1":        {K: 3, W: 2},
		"rho NaN":      {K: 3, Rho: nan},
		"rho +Inf":     {K: 3, Rho: inf},
		"rho -Inf":     {K: 3, Rho: math.Inf(-1)},
		"rho < 0":      {K: 3, Rho: -0.0001},
		"epsilon NaN":  {K: 3, Epsilon: nan},
		"epsilon +Inf": {K: 3, Epsilon: inf},
		"epsilon -Inf": {K: 3, Epsilon: math.Inf(-1)},
		"epsilon < 0":  {K: 3, Epsilon: -1},
		"k < 1":        {K: -1},
	} {
		sum, err := eng.DescribeStreet("High St", p)
		if !errors.Is(err, ErrBadSummaryParams) {
			t.Errorf("%s: err = %v (summary %+v), want ErrBadSummaryParams", name, err, sum)
		}
	}
	// None of them reached the context memo: a NaN key is never found
	// again, so each such request would have left an entry behind.
	if d := eng.StatsSnapshot().Diversify; eng.contexts.Len() != 0 || d.ContextMemoMisses != 0 || d.ContextMemoPhotos != 0 {
		t.Errorf("refused describes left %d contexts in the memo (%d lookups, %d photos)",
			eng.contexts.Len(), d.ContextMemoMisses, d.ContextMemoPhotos)
	}
	// The boundary values are fine.
	for _, p := range []SummaryParams{{K: 3, Lambda: 1, W: 1}, {K: 3, Lambda: 1e-9, W: 1e-9}} {
		if _, err := eng.DescribeStreet("High St", p); err != nil {
			t.Errorf("%+v refused: %v", p, err)
		}
	}
	// An unknown street is still reported as such, whatever the parameters.
	if _, err := eng.DescribeStreet("Nope St", SummaryParams{K: 3, Lambda: nan}); !errors.Is(err, ErrUnknownStreet) {
		t.Errorf("unknown street with bad params: err = %v, want ErrUnknownStreet", err)
	}
}

func TestSummaryParamsDefaults(t *testing.T) {
	p := SummaryParams{K: 3}.withDefaults()
	if p.Lambda != 0.5 || p.W != 0.5 || p.Rho != 0.0001 || p.Epsilon != DefaultCellSize {
		t.Fatalf("defaults = %+v", p)
	}
	// Explicit values survive.
	q := SummaryParams{K: 3, Lambda: 0.25, W: 0.75, Rho: 0.01, Epsilon: 0.002}.withDefaults()
	if q.Lambda != 0.25 || q.W != 0.75 || q.Rho != 0.01 || q.Epsilon != 0.002 {
		t.Fatalf("explicit params overridden: %+v", q)
	}
}

func TestNewEngineErrors(t *testing.T) {
	_, err := NewEngine([]StreetInput{{Name: "bad", Polyline: []Point{{0, 0}}}}, nil, nil, Config{})
	if err == nil {
		t.Fatal("expected error for 1-point polyline")
	}
}

func TestWarmIdempotent(t *testing.T) {
	eng := fixtureEngine(t)
	eng.Warm(0.0005)
	eng.Warm(0.0005)
	res, err := eng.TopStreets(Query{Keywords: []string{"shop"}, K: 1, Epsilon: 0.0005})
	if err != nil || len(res) != 1 {
		t.Fatalf("res=%v err=%v", res, err)
	}
}

func TestRecommendTourFacade(t *testing.T) {
	eng := fixtureEngine(t)
	tour, err := eng.RecommendTour(Query{Keywords: []string{"shop"}, K: 3, Epsilon: 0.0005}, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(tour.Stops) == 0 {
		t.Fatal("empty tour")
	}
	if tour.Stops[0].Street != "High St" {
		t.Fatalf("tour starts at %q", tour.Stops[0].Street)
	}
	if tour.Stops[0].Walk != 0 {
		t.Fatalf("first stop walk = %v", tour.Stops[0].Walk)
	}
	if tour.Interest <= 0 || tour.Length <= 0 {
		t.Fatalf("tour totals: %+v", tour)
	}
}

func TestRecommendTourErrors(t *testing.T) {
	eng := fixtureEngine(t)
	if _, err := eng.RecommendTour(Query{}, 1); err == nil {
		t.Fatal("expected validation error")
	}
	if _, err := eng.RecommendTour(Query{Keywords: []string{"unicorn"}, K: 2, Epsilon: 0.0005}, 1); !errors.Is(err, ErrNoMatch) {
		t.Fatalf("err = %v, want ErrNoMatch", err)
	}
	if _, err := eng.RecommendTour(Query{Keywords: []string{"shop"}, K: 2, Epsilon: 0.0005}, 0); err == nil {
		t.Fatal("expected budget error")
	}
}

func TestDescribeStreetConsistentWithScan(t *testing.T) {
	// The facade's grid-backed photo extraction must produce the same
	// candidate count on repeated calls (index is built once).
	eng := fixtureEngine(t)
	a, err := eng.DescribeStreet("High St", SummaryParams{K: 2, Epsilon: 0.0005})
	if err != nil {
		t.Fatal(err)
	}
	b, err := eng.DescribeStreet("High St", SummaryParams{K: 2, Epsilon: 0.0005})
	if err != nil {
		t.Fatal(err)
	}
	if a.CandidateCount != b.CandidateCount || len(a.Photos) != len(b.Photos) {
		t.Fatalf("inconsistent summaries: %+v vs %+v", a, b)
	}
	for i := range a.Photos {
		if a.Photos[i].X != b.Photos[i].X || a.Photos[i].Y != b.Photos[i].Y {
			t.Fatal("summary photos differ across calls")
		}
	}
}
