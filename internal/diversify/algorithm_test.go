package diversify

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/geo"
	"repro/internal/network"
	"repro/internal/photo"
	"repro/internal/vocab"
)

// newTestNetwork builds a small network shared by tests in this package.
func newTestNetwork(t *testing.T) *network.Network {
	t.Helper()
	nb := network.NewBuilder()
	nb.AddStreet("Main St", []geo.Point{geo.Pt(0, 0), geo.Pt(1, 0), geo.Pt(2, 0)})
	nb.AddStreet("Side St", []geo.Point{geo.Pt(0, 1), geo.Pt(1, 1)})
	net, err := nb.Build()
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// randomContext builds a random photo context with clustered locations
// and a skewed tag distribution.
func randomContext(t *testing.T, rng *rand.Rand, n int) *Context {
	t.Helper()
	d := vocab.NewDictionary()
	vocabWords := []string{"shop", "oxford", "demo", "hmv", "bus", "night", "xmas", "rain"}
	rs := make([]photo.Photo, n)
	// A few cluster centers emulate photo hotspots.
	nClusters := rng.Intn(4) + 1
	centers := make([]geo.Point, nClusters)
	for i := range centers {
		centers[i] = geo.Pt(rng.Float64(), rng.Float64())
	}
	for i := 0; i < n; i++ {
		c := centers[rng.Intn(nClusters)]
		loc := geo.Pt(c.X+rng.NormFloat64()*0.05, c.Y+rng.NormFloat64()*0.05)
		var tags []string
		for _, w := range vocabWords {
			if rng.Float64() < 0.25 {
				tags = append(tags, w)
			}
		}
		rs[i] = photo.Photo{ID: uint32(i), Loc: loc, Tags: d.InternAll(tags)}
	}
	freq := FreqFromPhotos(d, rs)
	ctx, err := NewContext(rs, freq, 2.0, 0.05+rng.Float64()*0.1)
	if err != nil {
		t.Fatal(err)
	}
	return ctx
}

// TestBoundSandwich is the core soundness property of Section 4.2.2: for
// every cell and every photo in it, the cell bounds must bracket the
// exact per-photo values of every objective component.
func TestBoundSandwich(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 25; trial++ {
		ctx := randomContext(t, rng, rng.Intn(80)+5)
		w := rng.Float64()
		k := rng.Intn(5) + 2
		// A random selected set.
		var selected []int
		for i := 0; i < k-1 && i < ctx.Len(); i++ {
			selected = append(selected, rng.Intn(ctx.Len()))
		}
		for cid := 0; cid < ctx.slab.NumCells(); cid++ {
			relLo, relHi := ctx.cellRelBounds(cid, w)
			for _, m := range ctx.members(cid) {
				i := int(m)
				// Relevance sandwich.
				if r := ctx.Rel(i, w); r < relLo-1e-9 || r > relHi+1e-9 {
					t.Fatalf("trial %d: Rel(%d)=%v outside [%v,%v]", trial, i, r, relLo, relHi)
				}
				// Per-selected diversity sandwich.
				for _, j := range selected {
					dLo, dHi := ctx.cellDivBounds(cid, j, w)
					if dv := ctx.Div(i, j, w); dv < dLo-1e-9 || dv > dHi+1e-9 {
						t.Fatalf("trial %d: Div(%d,%d)=%v outside [%v,%v]", trial, i, j, dv, dLo, dHi)
					}
				}
			}
		}
	}
}

// TestSpatialTextualDivBoundsBrute checks Eq. 15–18 against brute force
// over every (cell, probe photo) pair.
func TestSpatialTextualDivBoundsBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	for trial := 0; trial < 25; trial++ {
		ctx := randomContext(t, rng, rng.Intn(60)+5)
		for probe := 0; probe < ctx.Len(); probe++ {
			for cid := 0; cid < ctx.slab.NumCells(); cid++ {
				sLo, sHi := ctx.SpatialDivBounds(cid, probe)
				tLo, tHi := ctx.TextualDivBounds(cid, probe)
				for _, m := range ctx.members(cid) {
					i := int(m)
					if d := ctx.SpatialDiv(probe, i); d < sLo-1e-9 || d > sHi+1e-9 {
						t.Fatalf("spatial div %v outside [%v,%v]", d, sLo, sHi)
					}
					if d := ctx.TextualDiv(probe, i); d < tLo-1e-9 || d > tHi+1e-9 {
						t.Fatalf("textual div %v outside [%v,%v] (probe tags %v, cell member tags %v, cΨ=%v min=%d max=%d)",
							d, tLo, tHi, ctx.photos[probe].Tags, ctx.photos[i].Tags, ctx.cellKeywords(cid), ctx.slab.PsiMin[cid], ctx.slab.PsiMax[cid])
					}
				}
			}
		}
	}
}

// TestSTRelDivMatchesBaseline: the pruned algorithm must select exactly
// the photos the exhaustive greedy baseline selects (ties are broken
// identically by photo index).
func TestSTRelDivMatchesBaseline(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	for trial := 0; trial < 50; trial++ {
		ctx := randomContext(t, rng, rng.Intn(120)+3)
		p := Params{
			K:      rng.Intn(8) + 1,
			Lambda: float64(rng.Intn(5)) / 4,
			W:      float64(rng.Intn(5)) / 4,
			Rho:    ctx.rho,
		}
		fast, err := ctx.STRelDiv(p)
		if err != nil {
			t.Fatal(err)
		}
		slow, err := ctx.Baseline(p)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fast.Selected, slow.Selected) {
			t.Fatalf("trial %d (%+v): ST selected %v, BL selected %v", trial, p, fast.Selected, slow.Selected)
		}
		if !almostEq(fast.Objective, slow.Objective) {
			t.Fatalf("trial %d: objectives differ: %v vs %v", trial, fast.Objective, slow.Objective)
		}
	}
}

// TestGreedyNearOptimal: on tiny inputs the greedy objective must never
// exceed the exhaustive optimum, and should be a reasonable fraction of it.
func TestGreedyNearOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	var worst float64 = 1
	for trial := 0; trial < 30; trial++ {
		ctx := randomContext(t, rng, rng.Intn(10)+4)
		p := Params{K: 3, Lambda: 0.5, W: 0.5, Rho: ctx.rho}
		greedy, err := ctx.STRelDiv(p)
		if err != nil {
			t.Fatal(err)
		}
		opt, err := ctx.Exhaustive(p)
		if err != nil {
			t.Fatal(err)
		}
		if greedy.Objective > opt.Objective+1e-9 {
			t.Fatalf("greedy %v exceeds optimum %v", greedy.Objective, opt.Objective)
		}
		if opt.Objective > 0 {
			if ratio := greedy.Objective / opt.Objective; ratio < worst {
				worst = ratio
			}
		}
	}
	if worst < 0.5 {
		t.Fatalf("greedy quality ratio %v below the MaxSum greedy guarantee ballpark", worst)
	}
}

func TestSTRelDivEdgeCases(t *testing.T) {
	d := vocab.NewDictionary()
	one := []photo.Photo{{ID: 0, Loc: geo.Pt(0, 0), Tags: d.InternAll([]string{"a"})}}
	ctx, err := NewContext(one, FreqFromPhotos(d, one), 1, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	// k exceeds |Rs|: all photos returned.
	res, err := ctx.STRelDiv(Params{K: 5, Lambda: 0.5, W: 0.5, Rho: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Selected) != 1 || res.Selected[0] != 0 {
		t.Fatalf("Selected = %v", res.Selected)
	}
	// Invalid params are rejected by every entry point.
	if _, err := ctx.STRelDiv(Params{}); err == nil {
		t.Fatal("expected error")
	}
	if _, err := ctx.Baseline(Params{}); err == nil {
		t.Fatal("expected error")
	}
	if _, err := ctx.Exhaustive(Params{}); err == nil {
		t.Fatal("expected error")
	}
}

func TestSTRelDivPrunes(t *testing.T) {
	// Dense clustered photos: the bound logic must evaluate fewer photos
	// than the baseline does.
	rng := rand.New(rand.NewSource(65))
	ctx := randomContext(t, rng, 400)
	p := Params{K: 10, Lambda: 0.5, W: 0.5, Rho: ctx.rho}
	fast, err := ctx.STRelDiv(p)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := ctx.Baseline(p)
	if err != nil {
		t.Fatal(err)
	}
	if fast.Stats.PhotosEvaluated >= slow.Stats.PhotosEvaluated {
		t.Fatalf("no pruning: ST evaluated %d photos, BL %d",
			fast.Stats.PhotosEvaluated, slow.Stats.PhotosEvaluated)
	}
}

func TestVariantsTable(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	ctx := randomContext(t, rng, 150)
	base := Params{K: 4, Lambda: 0.5, W: 0.5, Rho: ctx.rho}
	scores := make(map[Variant]float64)
	for _, v := range Variants {
		res, err := ctx.RunVariant(v, base)
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if len(res.Selected) != base.K {
			t.Fatalf("%v: selected %d photos", v, len(res.Selected))
		}
		scores[v] = res.Objective
		if v.String() == "" {
			t.Fatalf("variant %d has no name", v)
		}
	}
	// ST_Rel+Div greedily optimizes the very objective used for scoring,
	// so it must dominate the pure-relevance variants which ignore the
	// diversity half of the objective.
	if scores[STRelDivVariant] < scores[STRel]-1e-9 {
		t.Fatalf("ST_Rel+Div %v below ST_Rel %v", scores[STRelDivVariant], scores[STRel])
	}
}

func TestVariantParams(t *testing.T) {
	base := Params{K: 3, Lambda: 0.7, W: 0.3, Rho: 0.1}
	tests := []struct {
		v      Variant
		lambda float64
		w      float64
	}{
		{SRel, 0, 1},
		{SDiv, 1, 1},
		{SRelDiv, 0.7, 1},
		{TRel, 0, 0},
		{TDiv, 1, 0},
		{TRelDiv, 0.7, 0},
		{STRel, 0, 0.3},
		{STDiv, 1, 0.3},
		{STRelDivVariant, 0.7, 0.3},
	}
	for _, tc := range tests {
		got := tc.v.params(base)
		if got.Lambda != tc.lambda || got.W != tc.w {
			t.Errorf("%v: params = λ%v w%v, want λ%v w%v", tc.v, got.Lambda, got.W, tc.lambda, tc.w)
		}
		if got.K != base.K || got.Rho != base.Rho {
			t.Errorf("%v: K/Rho not preserved", tc.v)
		}
	}
}

// TestPlantedScenario reproduces the Figure 3 failure modes: S_Rel picks
// near-duplicates at the photo hotspot, T_Rel picks the tag burst, while
// ST_Rel+Div spreads across both and the long tail.
func TestPlantedScenario(t *testing.T) {
	d := vocab.NewDictionary()
	var rs []photo.Photo
	add := func(x, y float64, tags ...string) {
		rs = append(rs, photo.Photo{ID: uint32(len(rs)), Loc: geo.Pt(x, y), Tags: d.InternAll(tags)})
	}
	// Hotspot: 10 near-duplicate photos outside "hmv" (dense spot).
	for i := 0; i < 10; i++ {
		add(0.500+float64(i)*0.0001, 0.5, "hmv", "storefront")
	}
	// Tag burst: 8 photos of a demonstration along the street.
	for i := 0; i < 8; i++ {
		add(0.1+float64(i)*0.1, 0.51, "demo", "protest", "crowd")
	}
	// Long tail: 6 scattered construction photos.
	for i := 0; i < 6; i++ {
		add(0.15*float64(i), 0.49, "construction")
	}
	freq := FreqFromPhotos(d, rs)
	ctx, err := NewContext(rs, freq, 1.5, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	base := Params{K: 3, Lambda: 0.5, W: 0.5, Rho: 0.01}

	sRel, _ := ctx.RunVariant(SRel, base)
	allHotspot := true
	for _, i := range sRel.Selected {
		if i >= 10 {
			allHotspot = false
		}
	}
	if !allHotspot {
		t.Fatalf("S_Rel selected %v; expected all from the dense hotspot", sRel.Selected)
	}

	tRel, _ := ctx.RunVariant(TRel, base)
	allBurst := true
	for _, i := range tRel.Selected {
		if i < 10 || i >= 18 {
			allBurst = false
		}
	}
	if !allBurst {
		t.Fatalf("T_Rel selected %v; expected all from the tag burst", tRel.Selected)
	}

	full, _ := ctx.RunVariant(STRelDivVariant, base)
	kinds := map[string]bool{}
	for _, i := range full.Selected {
		switch {
		case i < 10:
			kinds["hotspot"] = true
		case i < 18:
			kinds["burst"] = true
		default:
			kinds["tail"] = true
		}
	}
	if len(kinds) < 2 {
		t.Fatalf("ST_Rel+Div selected %v from only %v", full.Selected, kinds)
	}
	if full.Objective < sRel.Objective || full.Objective < tRel.Objective {
		t.Fatalf("ST_Rel+Div objective %v below S_Rel %v or T_Rel %v",
			full.Objective, sRel.Objective, tRel.Objective)
	}
}

// cellOrdinalAt returns the ordinal of the context's cell holding p.
func cellOrdinalAt(ctx *Context, p geo.Point) int {
	return ctx.slab.OrdinalOf(ctx.slab.Lattice().CellIndex(p))
}

// Explicit hand-computed cases for the textual diversity bounds
// (Eq. 17–18), complementing the randomized sandwich test.
func TestTextualDivBoundsFormulas(t *testing.T) {
	// One cell containing two photos: tags {a,b} and {a,b,c} →
	// c.Ψ = {a,b,c}, ψmin = 2, ψmax = 3.
	locs := []geo.Point{geo.Pt(0, 0), geo.Pt(0.001, 0), geo.Pt(5, 5)}
	tags := [][]string{{"a", "b"}, {"a", "b", "c"}, {"a", "x"}}
	ctx, _ := buildCtx(t, locs, tags, 0.1, 10)
	cellID := cellOrdinalAt(ctx, geo.Pt(0, 0))
	if ctx.slab.PsiMin[cellID] != 2 || ctx.slab.PsiMax[cellID] != 3 {
		t.Fatalf("cell psi = %d,%d", ctx.slab.PsiMin[cellID], ctx.slab.PsiMax[cellID])
	}
	// Probe photo 2 has Ψr = {a, x}: |Ψr|=2, common=|{a}|=1 < ψmin=2.
	lo, hi := ctx.TextualDivBounds(cellID, 2)
	// Eq. 17 first case: 1 − 1/(2+2−1) = 2/3.
	if !almostEq(lo, 1-1.0/3) {
		t.Errorf("lo = %v, want 2/3", lo)
	}
	// Eq. 18: notCommon = |{b,c}| = 2 ≥ ψmin → hi = 1.
	if hi != 1 {
		t.Errorf("hi = %v, want 1", hi)
	}
}

func TestTextualDivBoundsSecondCase(t *testing.T) {
	// Cell photos: {a}, {a,b} → c.Ψ={a,b}, ψmin=1, ψmax=2.
	locs := []geo.Point{geo.Pt(0, 0), geo.Pt(0.001, 0), geo.Pt(5, 5)}
	tags := [][]string{{"a"}, {"a", "b"}, {"a", "b", "z"}}
	ctx, _ := buildCtx(t, locs, tags, 0.1, 10)
	cellID := cellOrdinalAt(ctx, geo.Pt(0, 0))
	// Probe photo 2: Ψr={a,b,z}, |Ψr|=3, common=2 ≥ ψmin=1.
	lo, hi := ctx.TextualDivBounds(cellID, 2)
	// Eq. 17 second case: 1 − min(2, ψmax=2)/3 = 1/3.
	if !almostEq(lo, 1.0/3) {
		t.Errorf("lo = %v, want 1/3", lo)
	}
	// Eq. 18: notCommon = 0 < ψmin=1 → 1 − (1−0)/(3+0) = 2/3.
	if !almostEq(hi, 2.0/3) {
		t.Errorf("hi = %v, want 2/3", hi)
	}
}

// Explicit hand case for the textual relevance bounds (Eq. 13–14).
func TestTextualRelBoundsFormulas(t *testing.T) {
	// Photos: {a,b} and {c} in one cell plus a distant {a}.
	// Φs counts all three photos: a=2, b=1, c=1 → L1=4.
	locs := []geo.Point{geo.Pt(0, 0), geo.Pt(0.001, 0), geo.Pt(5, 5)}
	tags := [][]string{{"a", "b"}, {"c"}, {"a"}}
	ctx, _ := buildCtx(t, locs, tags, 0.1, 10)
	cellID := cellOrdinalAt(ctx, geo.Pt(0, 0))
	lo := ctx.cellTextualLo[cellID]
	hi := ctx.cellTextualHi[cellID]
	// ψmin=1, ψmax=2; c.Ψ={a,b,c} all in Ψs.
	// Upper: top-2 freqs (2+1)/4 = 0.75.
	if !almostEq(hi, 0.75) {
		t.Errorf("hi = %v, want 0.75", hi)
	}
	// Lower: no out-of-support keywords, need 1 → smallest freq 1/4.
	if !almostEq(lo, 0.25) {
		t.Errorf("lo = %v, want 0.25", lo)
	}
}

// TestHugeKIsClampedToPool: k is request-controlled, and every greedy
// construction used to size its selection by it before clamping to |Rs|,
// so k = 2⁴⁰ was a 8 TiB allocation — an out-of-memory abort of the whole
// process, not a recoverable panic. The answer for k > |Rs| stays "all of
// Rs".
func TestHugeKIsClampedToPool(t *testing.T) {
	locs := []geo.Point{geo.Pt(0, 0), geo.Pt(0.02, 0), geo.Pt(0.3, 0.1), geo.Pt(1, 1), geo.Pt(0.5, 0.5)}
	tags := [][]string{{"hmv", "storefront"}, {"hmv"}, {"storefront", "rain"}, {"demo"}, {"rain", "bus"}}
	ctx, _ := buildCtx(t, locs, tags, 0.1, 2)
	p := Params{K: 1 << 40, Lambda: 0.5, W: 0.5, Rho: 0.1}
	for name, run := range map[string]func() (Result, error){
		"STRelDiv": func() (Result, error) { return ctx.STRelDiv(p) },
		"Baseline": func() (Result, error) { return ctx.Baseline(p) },
	} {
		res, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		picked := slices.Clone(res.Selected)
		slices.Sort(picked)
		if !slices.Equal(picked, []int{0, 1, 2, 3, 4}) {
			t.Errorf("%s selected %v, want all 5 photos", name, res.Selected)
		}
	}
}
