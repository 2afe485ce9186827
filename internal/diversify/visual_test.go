package diversify

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/geo"
	"repro/internal/photo"
	"repro/internal/vocab"
)

func visualCtx(t *testing.T) *Context {
	t.Helper()
	locs := []geo.Point{geo.Pt(0, 0), geo.Pt(0.02, 0), geo.Pt(1, 1), geo.Pt(0.5, 0.5)}
	tags := [][]string{{"hmv", "storefront"}, {"hmv", "storefront"}, {"demo"}, {"rain", "bus"}}
	ctx, _ := buildCtx(t, locs, tags, 0.1, 2)
	return ctx
}

func TestWithFeaturesValidation(t *testing.T) {
	ctx := visualCtx(t)
	if _, err := ctx.WithFeatures([][]float64{{1}}); err == nil {
		t.Fatal("expected error for wrong count")
	}
	if _, err := ctx.WithFeatures([][]float64{{1, 2}, {1}, {1, 2}, {1, 2}}); err == nil {
		t.Fatal("expected error for ragged dims")
	}
	ok := [][]float64{{1, 0}, {1, 0}, {0, 1}, {1, 1}}
	vis, err := ctx.WithFeatures(ok)
	if err != nil {
		t.Fatal(err)
	}
	if !vis.HasFeatures() {
		t.Fatal("HasFeatures = false")
	}
}

// TestWithFeaturesLeavesReceiverAlone: a context may be shared (the engine
// memoises them), so attaching features must not write to it. The copy
// shares what NewContext built and answers the plain query identically.
func TestWithFeaturesLeavesReceiverAlone(t *testing.T) {
	ctx := visualCtx(t)
	p := Params{K: 2, Lambda: 0.5, W: 0.5, Rho: 0.05}
	before, err := ctx.STRelDiv(p)
	if err != nil {
		t.Fatal(err)
	}
	vis, err := ctx.WithFeatures([][]float64{{1, 0}, {1, 0}, {0, 1}, {1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if ctx.HasFeatures() {
		t.Fatal("WithFeatures attached the features to its receiver")
	}
	if &vis.spatialRel[0] != &ctx.spatialRel[0] || vis.slab != ctx.slab {
		t.Fatal("the copy rebuilt what NewContext had built")
	}
	for name, c := range map[string]*Context{"receiver": ctx, "copy": vis} {
		after, err := c.STRelDiv(p)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(after.Selected, before.Selected) || math.Float64bits(after.Objective) != math.Float64bits(before.Objective) {
			t.Errorf("%s: STRelDiv = %v / %v, want %v / %v", name, after.Selected, after.Objective, before.Selected, before.Objective)
		}
	}
}

func TestVisualDiv(t *testing.T) {
	ctx := visualCtx(t)
	feats := [][]float64{{1, 0}, {1, 0}, {0, 1}, {0, 0}}
	ctx, err := ctx.WithFeatures(feats)
	if err != nil {
		t.Fatal(err)
	}
	if got := ctx.VisualDiv(0, 1); got != 0 {
		t.Errorf("identical features div = %v", got)
	}
	if got := ctx.VisualDiv(0, 2); almostEq(got, 1) == false {
		t.Errorf("orthogonal features div = %v, want 1", got)
	}
	if got := ctx.VisualDiv(0, 3); got != 1 {
		t.Errorf("zero-vs-nonzero div = %v, want 1", got)
	}
	if got := ctx.VisualDiv(3, 3); got != 0 {
		t.Errorf("zero-vs-zero div = %v, want 0", got)
	}
	// Symmetry.
	if ctx.VisualDiv(0, 2) != ctx.VisualDiv(2, 0) {
		t.Error("VisualDiv not symmetric")
	}
}

func TestVisualParamsValidate(t *testing.T) {
	base := Params{K: 2, Lambda: 0.5, W: 0.5, Rho: 0.1}
	if err := (VisualParams{Params: base, VisualWeight: 0.3}).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (VisualParams{Params: base, VisualWeight: -0.1}).Validate(); err == nil {
		t.Fatal("expected error")
	}
	if err := (VisualParams{Params: base, VisualWeight: 1.1}).Validate(); err == nil {
		t.Fatal("expected error")
	}
	if err := (VisualParams{Params: Params{}, VisualWeight: 0.5}).Validate(); err == nil {
		t.Fatal("expected error from embedded params")
	}
}

// With VisualWeight = 0 the extended greedy must select exactly what the
// base greedy baseline selects.
func TestGreedyVisualReducesToBase(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for trial := 0; trial < 20; trial++ {
		ctx := randomContext(t, rng, rng.Intn(80)+5)
		p := Params{K: 4, Lambda: 0.5, W: 0.5, Rho: ctx.rho}
		vres, err := ctx.GreedyVisual(VisualParams{Params: p})
		if err != nil {
			t.Fatal(err)
		}
		base, err := ctx.Baseline(p)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(vres.Selected, base.Selected) {
			t.Fatalf("trial %d: visual %v != base %v", trial, vres.Selected, base.Selected)
		}
		if !almostEq(vres.Objective, base.Objective) {
			t.Fatalf("trial %d: objectives %v vs %v", trial, vres.Objective, base.Objective)
		}
	}
}

func TestGreedyVisualRequiresFeatures(t *testing.T) {
	ctx := visualCtx(t)
	p := VisualParams{Params: Params{K: 2, Lambda: 0.5, W: 0.5, Rho: 0.1}, VisualWeight: 0.5}
	if _, err := ctx.GreedyVisual(p); err == nil {
		t.Fatal("expected error without features")
	}
}

// Visual diversity breaks up near-duplicate selections: with identical
// features on the duplicate pair and distinct ones elsewhere, raising
// VisualWeight must avoid picking both duplicates.
func TestGreedyVisualAvoidsDuplicates(t *testing.T) {
	d := vocab.NewDictionary()
	var rs []photo.Photo
	// Two visually identical photos at a relevance hotspot plus two
	// distinct ones.
	locs := []geo.Point{geo.Pt(0, 0), geo.Pt(0.001, 0), geo.Pt(0.3, 0.3), geo.Pt(0.6, 0.6)}
	tags := [][]string{{"a", "hot"}, {"b", "hot"}, {"c"}, {"d"}}
	for i := range locs {
		rs = append(rs, photo.Photo{ID: uint32(i), Loc: locs[i], Tags: d.InternAll(tags[i])})
	}
	ctx, err := NewContext(rs, FreqFromPhotos(d, rs), 1, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	feats := [][]float64{{1, 0, 0}, {1, 0, 0}, {0, 1, 0}, {0, 0, 1}}
	ctx, err = ctx.WithFeatures(feats)
	if err != nil {
		t.Fatal(err)
	}
	p := VisualParams{
		Params:       Params{K: 2, Lambda: 0.9, W: 0.5, Rho: 0.05},
		VisualWeight: 0.9,
	}
	res, err := ctx.GreedyVisual(p)
	if err != nil {
		t.Fatal(err)
	}
	sel := map[int]bool{}
	for _, i := range res.Selected {
		sel[i] = true
	}
	if sel[0] && sel[1] {
		t.Fatalf("visually identical duplicates both selected: %v", res.Selected)
	}
}

func TestHashFeatures(t *testing.T) {
	d := vocab.NewDictionary()
	photos := []photo.Photo{
		{Tags: d.InternAll([]string{"a", "b"})},
		{Tags: d.InternAll([]string{"a", "b"})},
		{Tags: d.InternAll([]string{"x", "y", "z"})},
		{Tags: nil},
	}
	f := HashFeatures(photos, 8)
	if len(f) != 4 || len(f[0]) != 8 {
		t.Fatalf("shape = %d x %d", len(f), len(f[0]))
	}
	if !reflect.DeepEqual(f[0], f[1]) {
		t.Fatal("identical tag sets produced different features")
	}
	if reflect.DeepEqual(f[0], f[2]) {
		t.Fatal("distinct tag sets produced identical features")
	}
	for _, v := range f[3] {
		if v != 0 {
			t.Fatal("untagged photo should have a zero vector")
		}
	}
	// Default dimension when dim <= 0.
	if g := HashFeatures(photos, 0); len(g[0]) != 8 {
		t.Fatalf("default dim = %d", len(g[0]))
	}
}

// ObjectiveVisual with weight 0 equals Objective.
func TestObjectiveVisualReduces(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	ctx := randomContext(t, rng, 30)
	p := Params{K: 3, Lambda: 0.4, W: 0.6, Rho: ctx.rho}
	sel := []int{0, 5, 9}
	a := ctx.Objective(sel, p)
	b := ctx.ObjectiveVisual(sel, VisualParams{Params: p})
	if !almostEq(a, b) {
		t.Fatalf("objectives differ: %v vs %v", a, b)
	}
}
