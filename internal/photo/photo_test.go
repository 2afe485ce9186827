package photo

import (
	"slices"
	"testing"

	"repro/internal/geo"
	"repro/internal/vocab"
)

func TestBuilderAndCorpus(t *testing.T) {
	b := NewBuilder(nil)
	a := b.Add(geo.Pt(1, 2), []string{"oxford", "street"})
	corpus := b.Build()
	if corpus.Len() != 1 {
		t.Fatalf("Len = %d", corpus.Len())
	}
	pa := corpus.Get(a)
	if pa.Loc != (geo.Pt(1, 2)) || pa.Tags.Len() != 2 {
		t.Fatalf("photo = %+v", pa)
	}
	if len(corpus.All()) != 1 || corpus.Dict().Len() != 2 {
		t.Fatal("accessor mismatch")
	}
}

func TestAddSetSharedDict(t *testing.T) {
	d := vocab.NewDictionary()
	tags := d.InternAll([]string{"a", "b"})
	b := NewBuilder(d)
	id := b.AddSet(geo.Pt(0, 0), tags)
	corpus := b.Build()
	if !slices.Equal(corpus.Get(id).Tags, tags) {
		t.Fatal("tags not preserved")
	}
	if corpus.Dict() != d {
		t.Fatal("dictionary not shared")
	}
}

func TestNewCorpusValidation(t *testing.T) {
	d := vocab.NewDictionary()
	if _, err := NewCorpus([]Photo{{ID: 3}}, d); err == nil {
		t.Fatal("expected error for non-dense ids")
	}
	if _, err := NewCorpus([]Photo{{ID: 0}, {ID: 1}}, d); err != nil {
		t.Fatal(err)
	}
}
