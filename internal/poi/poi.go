// Package poi models the Points of Interest data source P of the paper:
// each POI is a tuple p = ⟨(x, y), Ψp⟩ of a location and a keyword set,
// optionally carrying a weight (the paper notes Def. 1 adapts
// straightforwardly to weighted POIs).
package poi

import (
	"errors"
	"fmt"
	"slices"
	"sync"

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

// MaxWeight is the largest importance weight a POI may carry. POI ids are
// uint32, so no corpus holds more than 2³² POIs, and no sum of their
// weights — a cell's total, a segment's mass, the bounds Algorithm 1
// builds from them — can pass 2³² × 1e9 ≈ 4.3e18, far inside float64's
// range (DESIGN §9).
const MaxWeight = 1e9

// ErrBadWeight is wrapped by the error CheckWeight returns.
var ErrBadWeight = errors.New("poi: weight is negative, not finite or above 1e9")

// CheckWeight refuses a weight no POI may carry: negative, NaN, infinite
// or above MaxWeight. Zero is allowed; it means the default weight 1.
func CheckWeight(w float64) error {
	// The test is positive so that NaN fails it.
	if w >= 0 && w <= MaxWeight {
		return nil
	}
	return fmt.Errorf("%w: %v", ErrBadWeight, w)
}

// Corpus is an immutable collection of POIs sharing one dictionary.
//
// A lazy corpus (NewLazyCorpus) knows its size and dictionary from the
// start and decodes its records on the first call of All, Get or
// CountRelevant; Len and Dict never decode.
type Corpus struct {
	pois []POI
	dict *vocab.Dictionary
	n    int

	once   sync.Once
	decode func() []POI // nil for a corpus built in memory
}

// decodeHook, when a test sets it, sees every lazy corpus that decodes.
var decodeHook func(*Corpus)

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
	return &Corpus{pois: pois, dict: dict, n: len(pois)}, nil
}

// NewLazyCorpus returns a corpus of n POIs whose records decode produces,
// once, on first use. decode must return exactly n POIs with dense ids
// and non-zero weights; it runs at most once, however many goroutines
// touch the corpus first.
func NewLazyCorpus(n int, dict *vocab.Dictionary, decode func() []POI) *Corpus {
	return &Corpus{dict: dict, n: n, decode: decode}
}

// records returns the POIs, decoding a lazy corpus on first use.
func (c *Corpus) records() []POI {
	if c.decode != nil {
		c.once.Do(func() {
			c.pois = c.decode()
			if decodeHook != nil {
				decodeHook(c)
			}
		})
	}
	return c.pois
}

// Len returns the number of POIs.
func (c *Corpus) Len() int { return c.n }

// Get returns the POI with the given id.
func (c *Corpus) Get(id ID) *POI { return &c.records()[id] }

// All returns the underlying slice; callers must not modify it.
func (c *Corpus) All() []POI { return c.records() }

// Dict returns the keyword dictionary shared by the corpus.
func (c *Corpus) Dict() *vocab.Dictionary { return c.dict }

// CountRelevant returns the number of POIs whose keyword set intersects
// query (the paper's Table 4 statistic).
func (c *Corpus) CountRelevant(query vocab.Set) int {
	n := 0
	pois := c.records()
	for i := range pois {
		if pois[i].Keywords.Intersects(query) {
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

// Grow makes room for n more POIs, so that adding them does not copy
// the records already added.
func (b *Builder) Grow(n int) {
	b.pois = slices.Grow(b.pois, n)
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
	return &Corpus{pois: b.pois, dict: b.dict, n: len(b.pois)}
}
