// Package poi models the Points of Interest data source P of the paper:
// each POI is a tuple p = ⟨(x, y), Ψp⟩ of a location and a keyword set,
// optionally carrying a weight (the paper notes Def. 1 adapts
// straightforwardly to weighted POIs).
package poi

import (
	"fmt"

	"repro/internal/geo"
	"repro/internal/vocab"
)

// ID identifies a POI within a Corpus; ids are dense and start at 0.
type ID = uint32

// POI is a point of interest.
type POI struct {
	ID       ID
	Loc      geo.Point
	Keywords vocab.Set
	Weight   float64 // importance weight; 1 for the unweighted setting
}

// Corpus is an immutable collection of POIs sharing one dictionary.
type Corpus struct {
	pois []POI
	dict *vocab.Dictionary
}

// NewCorpus wraps the POIs and their dictionary into a corpus. POI ids
// must equal their slice index; this is verified and reported as an error
// because every index in the system assumes dense ids.
func NewCorpus(pois []POI, dict *vocab.Dictionary) (*Corpus, error) {
	for i := range pois {
		if pois[i].ID != ID(i) {
			return nil, fmt.Errorf("poi: id %d at index %d; ids must be dense", pois[i].ID, i)
		}
		if pois[i].Weight == 0 {
			pois[i].Weight = 1
		}
	}
	return &Corpus{pois: pois, dict: dict}, nil
}

// Len returns the number of POIs.
func (c *Corpus) Len() int { return len(c.pois) }

// Get returns the POI with the given id.
func (c *Corpus) Get(id ID) *POI { return &c.pois[id] }

// All returns the underlying slice; callers must not modify it.
func (c *Corpus) All() []POI { return c.pois }

// Dict returns the keyword dictionary shared by the corpus.
func (c *Corpus) Dict() *vocab.Dictionary { return c.dict }

// CountRelevant returns the number of POIs whose keyword set intersects
// query (the paper's Table 4 statistic).
func (c *Corpus) CountRelevant(query vocab.Set) int {
	n := 0
	for i := range c.pois {
		if c.pois[i].Keywords.Intersects(query) {
			n++
		}
	}
	return n
}

// Builder accumulates POIs with auto-assigned dense ids.
type Builder struct {
	pois []POI
	dict *vocab.Dictionary
}

// NewBuilder returns a builder using the given dictionary (a fresh one
// when nil).
func NewBuilder(dict *vocab.Dictionary) *Builder {
	if dict == nil {
		dict = vocab.NewDictionary()
	}
	return &Builder{dict: dict}
}

// Add appends a POI with the given location and keyword strings and
// returns its id.
func (b *Builder) Add(loc geo.Point, keywords []string) ID {
	return b.AddWeighted(loc, keywords, 1)
}

// AddWeighted appends a POI with an explicit importance weight; a zero
// weight means the default weight 1, as everywhere in the package.
func (b *Builder) AddWeighted(loc geo.Point, keywords []string, weight float64) ID {
	if weight == 0 {
		weight = 1
	}
	id := ID(len(b.pois))
	b.pois = append(b.pois, POI{
		ID:       id,
		Loc:      loc,
		Keywords: b.dict.InternAll(keywords),
		Weight:   weight,
	})
	return id
}

// AddSet appends a POI whose keywords are already interned ids.
func (b *Builder) AddSet(loc geo.Point, keywords vocab.Set, weight float64) ID {
	id := ID(len(b.pois))
	if weight == 0 {
		weight = 1
	}
	b.pois = append(b.pois, POI{ID: id, Loc: loc, Keywords: keywords, Weight: weight})
	return id
}

// Build finalizes the corpus.
func (b *Builder) Build() *Corpus {
	return &Corpus{pois: b.pois, dict: b.dict}
}
