// Package vocab provides the textual substrate of the SOI library: a
// keyword dictionary that interns strings into dense integer ids, and
// sorted keyword sets with the set algebra (intersection, union, Jaccard
// distance) the paper's textual relevance and diversity measures need.
//
// Keyword ids are dense and start at 0, so frequency vectors over a
// dictionary can be plain slices.
package vocab

import (
	"maps"
	"slices"
	"strings"
)

// ID identifies an interned keyword within a Dictionary.
type ID = uint32

// Dictionary interns keyword strings into dense ids. The zero value is
// ready to use. Dictionary is not safe for concurrent mutation; concurrent
// read-only use is safe.
type Dictionary struct {
	byName map[string]ID
	names  []string
}

// NewDictionary returns an empty dictionary.
func NewDictionary() *Dictionary {
	return &Dictionary{byName: make(map[string]ID)}
}

// Clone returns an independent copy holding the same keywords under the
// same ids. Ids follow first appearance, so interning further keywords
// into the copy assigns exactly the ids a fresh dictionary would assign
// after interning d's keywords in id order and then those.
func (d *Dictionary) Clone() *Dictionary {
	return &Dictionary{byName: maps.Clone(d.byName), names: slices.Clone(d.names)}
}

// Intern returns the id of the keyword, creating it when unseen. Keywords
// are normalized to lower case with surrounding whitespace removed.
func (d *Dictionary) Intern(keyword string) ID {
	k := Normalize(keyword)
	if d.byName == nil {
		d.byName = make(map[string]ID)
	}
	if id, ok := d.byName[k]; ok {
		return id
	}
	id := ID(len(d.names))
	d.byName[k] = id
	d.names = append(d.names, k)
	return id
}

// Lookup returns the id of the keyword and whether it is known.
func (d *Dictionary) Lookup(keyword string) (ID, bool) {
	id, ok := d.byName[Normalize(keyword)]
	return id, ok
}

// Name returns the string form of id. It panics when id is out of range,
// which indicates ids from a different dictionary.
func (d *Dictionary) Name(id ID) string {
	return d.names[id]
}

// Len returns the number of interned keywords.
func (d *Dictionary) Len() int { return len(d.names) }

// InternAll interns every keyword and returns the resulting sorted,
// deduplicated Set.
func (d *Dictionary) InternAll(keywords []string) Set {
	ids := make([]ID, 0, len(keywords))
	for _, k := range keywords {
		ids = append(ids, d.Intern(k))
	}
	return NewSet(ids)
}

// LookupAll resolves the keywords that are known and returns them as a
// Set, along with the keywords that were unknown.
func (d *Dictionary) LookupAll(keywords []string) (Set, []string) {
	ids := make([]ID, 0, len(keywords))
	var unknown []string
	for _, k := range keywords {
		if id, ok := d.Lookup(k); ok {
			ids = append(ids, id)
		} else {
			unknown = append(unknown, k)
		}
	}
	return NewSet(ids), unknown
}

// Names returns the string forms of every id in s.
func (d *Dictionary) Names(s Set) []string {
	out := make([]string, len(s))
	for i, id := range s {
		out[i] = d.Name(id)
	}
	return out
}

// Normalize lower-cases a keyword and trims surrounding whitespace.
func Normalize(keyword string) string {
	return strings.ToLower(strings.TrimSpace(keyword))
}

// Set is a sorted, duplicate-free slice of keyword ids. The zero value is
// the empty set.
type Set []ID

// NewSet sorts and deduplicates ids into a Set. The input slice may be
// reordered.
func NewSet(ids []ID) Set {
	if len(ids) == 0 {
		return nil
	}
	slices.Sort(ids)
	out := ids[:1]
	for _, id := range ids[1:] {
		if id != out[len(out)-1] {
			out = append(out, id)
		}
	}
	return Set(out)
}

// Len returns the cardinality of the set.
func (s Set) Len() int { return len(s) }

// IntersectCount returns |s ∩ t|.
func (s Set) IntersectCount(t Set) int {
	n, i, j := 0, 0, 0
	for i < len(s) && j < len(t) {
		switch {
		case s[i] < t[j]:
			i++
		case s[i] > t[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// Intersect returns s ∩ t as a new Set.
func (s Set) Intersect(t Set) Set {
	var out Set
	i, j := 0, 0
	for i < len(s) && j < len(t) {
		switch {
		case s[i] < t[j]:
			i++
		case s[i] > t[j]:
			j++
		default:
			out = append(out, s[i])
			i++
			j++
		}
	}
	return out
}

// Intersects reports whether s ∩ t is non-empty. This realizes the paper's
// relevance predicate Ψp ∩ Ψ ≠ ∅ (Def. 1).
func (s Set) Intersects(t Set) bool {
	i, j := 0, 0
	for i < len(s) && j < len(t) {
		switch {
		case s[i] < t[j]:
			i++
		case s[i] > t[j]:
			j++
		default:
			return true
		}
	}
	return false
}

// JaccardDistance returns 1 − |s∩t| / |s∪t| (Def. 7). The distance of two
// empty sets is 0 by convention.
func (s Set) JaccardDistance(t Set) float64 {
	inter := s.IntersectCount(t)
	union := len(s) + len(t) - inter
	if union == 0 {
		return 0
	}
	return 1 - float64(inter)/float64(union)
}

// Freq is a keyword frequency vector over a dictionary, indexed by keyword
// id. It realizes the paper's street keyword vector Φs.
type Freq []float64

// NewFreq returns a zeroed frequency vector sized for the dictionary.
func NewFreq(d *Dictionary) Freq {
	return make(Freq, d.Len())
}

// AddSet increments the frequency of every keyword in s by weight.
func (f Freq) AddSet(s Set, weight float64) {
	for _, id := range s {
		f[id] += weight
	}
}

// L1 returns the L1 norm ‖Φ‖₁ = Σ Φ(ψ), the normalizer of Def. 6.
func (f Freq) L1() float64 {
	var sum float64
	for _, v := range f {
		sum += v
	}
	return sum
}

// SumOver returns Σ_{ψ∈s} Φ(ψ).
func (f Freq) SumOver(s Set) float64 {
	var sum float64
	for _, id := range s {
		if int(id) < len(f) {
			sum += f[id]
		}
	}
	return sum
}

// Support returns the set of keywords with non-zero frequency (the
// paper's Ψs).
func (f Freq) Support() Set {
	var ids []ID
	for id, v := range f {
		if v != 0 {
			ids = append(ids, ID(id))
		}
	}
	return Set(ids)
}
