package poi

import (
	"errors"
	"math"
	"testing"

	"repro/internal/geo"
	"repro/internal/vocab"
)

func TestCheckWeight(t *testing.T) {
	for _, w := range []float64{0, 1, 2.5, MaxWeight} {
		if err := CheckWeight(w); err != nil {
			t.Errorf("CheckWeight(%v) = %v, want nil", w, err)
		}
	}
	for _, w := range []float64{-1, math.Nextafter(MaxWeight, math.Inf(1)), 1e308, math.Inf(1), math.Inf(-1), math.NaN()} {
		if err := CheckWeight(w); !errors.Is(err, ErrBadWeight) {
			t.Errorf("CheckWeight(%v) = %v, want ErrBadWeight", w, err)
		}
	}
}

func TestBuilderAndCorpus(t *testing.T) {
	b := NewBuilder(nil)
	a := b.Add(geo.Pt(1, 2), []string{"shop", "clothes"})
	c := b.AddWeighted(geo.Pt(3, 4), []string{"food"}, 2.5)
	corpus := b.Build()
	if corpus.Len() != 2 {
		t.Fatalf("Len = %d", corpus.Len())
	}
	pa := corpus.Get(a)
	if pa.Loc != (geo.Pt(1, 2)) || pa.Keywords.Len() != 2 || pa.Weight != 1 {
		t.Fatalf("POI a = %+v", pa)
	}
	pc := corpus.Get(c)
	if pc.Weight != 2.5 {
		t.Fatalf("POI c weight = %v", pc.Weight)
	}
	if corpus.Dict().Len() != 3 {
		t.Fatalf("dict size = %d", corpus.Dict().Len())
	}
	if len(corpus.All()) != 2 {
		t.Fatalf("All len = %d", len(corpus.All()))
	}
}

func TestBuilderAddSet(t *testing.T) {
	d := vocab.NewDictionary()
	s := d.InternAll([]string{"x"})
	b := NewBuilder(d)
	id := b.AddSet(geo.Pt(0, 0), s, 0)
	corpus := b.Build()
	if got := corpus.Get(id).Weight; got != 1 {
		t.Fatalf("default weight = %v", got)
	}
}

func TestCountRelevant(t *testing.T) {
	b := NewBuilder(nil)
	b.Add(geo.Pt(0, 0), []string{"shop"})
	b.Add(geo.Pt(0, 0), []string{"food"})
	b.Add(geo.Pt(0, 0), []string{"shop", "food"})
	b.Add(geo.Pt(0, 0), nil)
	corpus := b.Build()
	q, _ := corpus.Dict().LookupAll([]string{"shop"})
	if got := corpus.CountRelevant(q); got != 2 {
		t.Fatalf("CountRelevant(shop) = %d", got)
	}
	q2, _ := corpus.Dict().LookupAll([]string{"shop", "food"})
	if got := corpus.CountRelevant(q2); got != 3 {
		t.Fatalf("CountRelevant(shop,food) = %d", got)
	}
	if got := corpus.CountRelevant(nil); got != 0 {
		t.Fatalf("CountRelevant(nil) = %d", got)
	}
}

func TestNewCorpusValidation(t *testing.T) {
	d := vocab.NewDictionary()
	if _, err := NewCorpus([]POI{{ID: 5}}, d); err == nil {
		t.Fatal("expected error for non-dense ids")
	}
	c, err := NewCorpus([]POI{{ID: 0, Weight: 0}}, d)
	if err != nil {
		t.Fatal(err)
	}
	if c.Get(0).Weight != 1 {
		t.Fatal("zero weight not defaulted to 1")
	}
}
