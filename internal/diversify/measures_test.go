package diversify

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geo"
	"repro/internal/photo"
	"repro/internal/vocab"
)

func almostEq(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*(1+math.Abs(a)+math.Abs(b))
}

// buildCtx builds a context from explicit photo locations and tag lists.
func buildCtx(t *testing.T, locs []geo.Point, tags [][]string, rho, maxD float64) (*Context, *vocab.Dictionary) {
	t.Helper()
	d := vocab.NewDictionary()
	rs := make([]photo.Photo, len(locs))
	for i := range locs {
		rs[i] = photo.Photo{ID: uint32(i), Loc: locs[i], Tags: d.InternAll(tags[i])}
	}
	freq := FreqFromPhotos(d, rs)
	ctx, err := NewContext(rs, freq, maxD, rho)
	if err != nil {
		t.Fatal(err)
	}
	return ctx, d
}

func TestParamsValidate(t *testing.T) {
	ok := Params{K: 3, Lambda: 0.5, W: 0.5, Rho: 0.1}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Params{
		{K: 0, Lambda: 0.5, W: 0.5, Rho: 0.1},
		{K: 3, Lambda: -0.1, W: 0.5, Rho: 0.1},
		{K: 3, Lambda: 1.1, W: 0.5, Rho: 0.1},
		{K: 3, Lambda: 0.5, W: 2, Rho: 0.1},
		{K: 3, Lambda: 0.5, W: 0.5, Rho: 0},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: expected error for %+v", i, p)
		}
	}
}

func TestNewContextErrors(t *testing.T) {
	d := vocab.NewDictionary()
	if _, err := NewContext(nil, vocab.NewFreq(d), 1, 0.1); err != ErrNoPhotos {
		t.Fatalf("empty Rs error = %v", err)
	}
	rs := []photo.Photo{{Loc: geo.Pt(0, 0)}}
	if _, err := NewContext(rs, vocab.NewFreq(d), 1, 0); err == nil {
		t.Fatal("expected error for rho=0")
	}
	if _, err := NewContext(rs, vocab.NewFreq(d), 0, 0.1); err == nil {
		t.Fatal("expected error for maxD=0")
	}
}

func TestSpatialRel(t *testing.T) {
	// Three photos clustered within rho of each other, one far away.
	locs := []geo.Point{geo.Pt(0, 0), geo.Pt(0.02, 0), geo.Pt(0, 0.03), geo.Pt(5, 5)}
	tags := [][]string{{"a"}, {"a"}, {"a"}, {"a"}}
	ctx, _ := buildCtx(t, locs, tags, 0.1, 10)
	// Photo 0 has neighbors {0,1,2} within 0.1 → 3/4.
	if got := ctx.spatialRel[0]; !almostEq(got, 0.75) {
		t.Errorf("SpatialRel(0) = %v, want 0.75", got)
	}
	// The far photo only covers itself → 1/4.
	if got := ctx.spatialRel[3]; !almostEq(got, 0.25) {
		t.Errorf("SpatialRel(3) = %v, want 0.25", got)
	}
}

// SpatialRel must agree with an O(n²) brute-force count.
func TestSpatialRelBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 30; trial++ {
		n := rng.Intn(60) + 2
		locs := make([]geo.Point, n)
		tags := make([][]string, n)
		for i := range locs {
			locs[i] = geo.Pt(rng.Float64(), rng.Float64())
			tags[i] = []string{"x"}
		}
		rho := 0.05 + rng.Float64()*0.3
		ctx, _ := buildCtx(t, locs, tags, rho, 2)
		for i := 0; i < n; i++ {
			cnt := 0
			for j := 0; j < n; j++ {
				if locs[i].Dist(locs[j]) <= rho {
					cnt++
				}
			}
			want := float64(cnt) / float64(n)
			if got := ctx.spatialRel[i]; !almostEq(got, want) {
				t.Fatalf("trial %d photo %d: SpatialRel = %v, want %v", trial, i, got, want)
			}
		}
	}
}

func TestTextualRel(t *testing.T) {
	locs := []geo.Point{geo.Pt(0, 0), geo.Pt(1, 0), geo.Pt(2, 0)}
	tags := [][]string{{"shop", "oxford"}, {"shop"}, {"demo"}}
	ctx, _ := buildCtx(t, locs, tags, 0.5, 5)
	// Φs: shop=2, oxford=1, demo=1; L1=4.
	// Photo 0: (2+1)/4 = 0.75.
	if got := ctx.TextualRel(0); !almostEq(got, 0.75) {
		t.Errorf("TextualRel(0) = %v", got)
	}
	if got := ctx.TextualRel(2); !almostEq(got, 0.25) {
		t.Errorf("TextualRel(2) = %v", got)
	}
}

func TestTextualRelEmptyFreq(t *testing.T) {
	locs := []geo.Point{geo.Pt(0, 0)}
	tags := [][]string{nil}
	ctx, _ := buildCtx(t, locs, tags, 0.5, 5)
	if got := ctx.TextualRel(0); got != 0 {
		t.Errorf("TextualRel with empty Φs = %v", got)
	}
}

func TestSpatialDiv(t *testing.T) {
	locs := []geo.Point{geo.Pt(0, 0), geo.Pt(3, 4)}
	tags := [][]string{{"a"}, {"b"}}
	ctx, _ := buildCtx(t, locs, tags, 0.5, 10)
	if got := ctx.SpatialDiv(0, 1); !almostEq(got, 0.5) {
		t.Errorf("SpatialDiv = %v, want 0.5", got)
	}
	if got := ctx.SpatialDiv(0, 0); got != 0 {
		t.Errorf("self SpatialDiv = %v", got)
	}
}

func TestTextualDiv(t *testing.T) {
	locs := []geo.Point{geo.Pt(0, 0), geo.Pt(1, 0), geo.Pt(2, 0)}
	tags := [][]string{{"a", "b"}, {"b", "c"}, {"a", "b"}}
	ctx, _ := buildCtx(t, locs, tags, 0.5, 5)
	if got := ctx.TextualDiv(0, 1); !almostEq(got, 1-1.0/3) {
		t.Errorf("TextualDiv(0,1) = %v", got)
	}
	if got := ctx.TextualDiv(0, 2); got != 0 {
		t.Errorf("identical tags TextualDiv = %v", got)
	}
}

func TestRelDivBlend(t *testing.T) {
	locs := []geo.Point{geo.Pt(0, 0), geo.Pt(3, 4)}
	tags := [][]string{{"a"}, {"b"}}
	ctx, _ := buildCtx(t, locs, tags, 0.5, 10)
	// w=1: only spatial; w=0: only textual.
	if got := ctx.Rel(0, 1); !almostEq(got, ctx.spatialRel[0]) {
		t.Errorf("Rel w=1 = %v", got)
	}
	if got := ctx.Rel(0, 0); !almostEq(got, ctx.TextualRel(0)) {
		t.Errorf("Rel w=0 = %v", got)
	}
	if got := ctx.Div(0, 1, 1); !almostEq(got, ctx.SpatialDiv(0, 1)) {
		t.Errorf("Div w=1 = %v", got)
	}
	if got := ctx.Div(0, 1, 0); !almostEq(got, ctx.TextualDiv(0, 1)) {
		t.Errorf("Div w=0 = %v", got)
	}
	mid := ctx.Div(0, 1, 0.5)
	want := 0.5*ctx.SpatialDiv(0, 1) + 0.5*ctx.TextualDiv(0, 1)
	if !almostEq(mid, want) {
		t.Errorf("Div w=0.5 = %v, want %v", mid, want)
	}
}

// MMR computes the maximal marginal relevance of candidate photo i given
// the already-selected set (Eq. 10), summing the diversity term over the
// whole set: the reference the greedy constructions' lazily carried sum
// (mmrState) must equal bit for bit.
func (c *Context) MMR(i int, selected []int, p Params) float64 {
	v := (1 - p.Lambda) * c.Rel(i, p.W)
	if p.K > 1 && len(selected) > 0 {
		var div float64
		for _, j := range selected {
			div += c.Div(i, j, p.W)
		}
		v += p.Lambda / float64(p.K-1) * div
	}
	return v
}

func TestMMR(t *testing.T) {
	locs := []geo.Point{geo.Pt(0, 0), geo.Pt(1, 0), geo.Pt(2, 0)}
	tags := [][]string{{"a"}, {"b"}, {"c"}}
	ctx, _ := buildCtx(t, locs, tags, 0.5, 5)
	p := Params{K: 3, Lambda: 0.4, W: 0.5, Rho: 0.5}
	// Empty selection: mmr = (1-λ)·rel.
	if got := ctx.MMR(0, nil, p); !almostEq(got, 0.6*ctx.Rel(0, 0.5)) {
		t.Errorf("MMR empty = %v", got)
	}
	// With selection: relevance term plus λ/(k−1)·Σ div.
	sel := []int{1, 2}
	want := 0.6*ctx.Rel(0, 0.5) + 0.4/2*(ctx.Div(0, 1, 0.5)+ctx.Div(0, 2, 0.5))
	if got := ctx.MMR(0, sel, p); !almostEq(got, want) {
		t.Errorf("MMR = %v, want %v", got, want)
	}
}

func TestObjectiveScores(t *testing.T) {
	locs := []geo.Point{geo.Pt(0, 0), geo.Pt(1, 0), geo.Pt(0, 1)}
	tags := [][]string{{"a"}, {"b"}, {"a", "b"}}
	ctx, _ := buildCtx(t, locs, tags, 0.5, 5)
	p := Params{K: 2, Lambda: 0.5, W: 0.5, Rho: 0.5}
	sel := []int{0, 1}
	rel := ctx.RelScore(sel, 0.5)
	wantRel := (ctx.Rel(0, 0.5) + ctx.Rel(1, 0.5)) / 2
	if !almostEq(rel, wantRel) {
		t.Errorf("RelScore = %v, want %v", rel, wantRel)
	}
	div := ctx.DivScore(sel, 0.5)
	if !almostEq(div, ctx.Div(0, 1, 0.5)) {
		t.Errorf("DivScore = %v, want %v", div, ctx.Div(0, 1, 0.5))
	}
	f := ctx.Objective(sel, p)
	if !almostEq(f, 0.5*rel+0.5*div) {
		t.Errorf("Objective = %v", f)
	}
	// Degenerate sets.
	if got := ctx.RelScore(nil, 0.5); got != 0 {
		t.Errorf("empty RelScore = %v", got)
	}
	if got := ctx.DivScore([]int{0}, 0.5); got != 0 {
		t.Errorf("singleton DivScore = %v", got)
	}
}

// DivScore over three photos equals the mean pairwise diversity.
func TestDivScoreNormalization(t *testing.T) {
	locs := []geo.Point{geo.Pt(0, 0), geo.Pt(1, 0), geo.Pt(0, 1)}
	tags := [][]string{{"a"}, {"b"}, {"c"}}
	ctx, _ := buildCtx(t, locs, tags, 0.5, 5)
	sel := []int{0, 1, 2}
	want := (ctx.Div(0, 1, 0.5) + ctx.Div(0, 2, 0.5) + ctx.Div(1, 2, 0.5)) / 3
	if got := ctx.DivScore(sel, 0.5); !almostEq(got, want) {
		t.Errorf("DivScore = %v, want %v", got, want)
	}
}

func TestExtractStreetPhotosAndFreq(t *testing.T) {
	netB := newTestNetwork(t)
	d := vocab.NewDictionary()
	pb := photo.NewBuilder(d)
	pb.Add(geo.Pt(0.5, 0.05), []string{"main", "shop"}) // near Main
	pb.Add(geo.Pt(1.5, 0.02), []string{"main"})         // near Main
	pb.Add(geo.Pt(0.5, 2), []string{"far"})             // far away
	corpus := pb.Build()
	main := netB.StreetByName("Main St")
	rs, maxD := ExtractStreetPhotos(netB, main.ID, corpus, 0.1)
	if len(rs) != 2 {
		t.Fatalf("Rs = %d photos, want 2", len(rs))
	}
	// Street MBR is [0,2]x[0,0]; buffered by 0.1: diagonal of 2.2 x 0.2.
	wantD := math.Hypot(2.2, 0.2)
	if !almostEq(maxD, wantD) {
		t.Fatalf("maxD = %v, want %v", maxD, wantD)
	}
	freq := FreqFromPhotos(d, rs)
	mainKw, _ := d.Lookup("main")
	if freq[mainKw] != 2 {
		t.Fatalf("freq[main] = %v", freq[mainKw])
	}
}
