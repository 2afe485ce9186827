package photo

import (
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/geo"
	"repro/internal/vocab"
)

// FuzzBuilder feeds arbitrary tag strings and coordinates through the
// builder and checks the corpus invariants every consumer relies on:
// dense ids, lossless locations, and tag interning that is normalized,
// deduplicated and idempotent (re-adding a photo's decoded tag names
// yields the identical set). The tag decoder splits the fuzz string on
// '|' so the fuzzer controls empties, whitespace, case, duplicates and
// arbitrary unicode.
func FuzzBuilder(f *testing.F) {
	f.Add("shop|food", 0.5, 0.25)
	f.Add("", 0.0, 0.0)
	f.Add(" Shop |shop|SHOP ", -1.5, 3.25)
	f.Add("a||b|  |a", 1e-300, -0.0)
	f.Add("tag,comma|Ümlaut|日本語", math.MaxFloat64, 1.0)
	f.Fuzz(func(t *testing.T, rawTags string, x, y float64) {
		tags := strings.Split(rawTags, "|")
		b := NewBuilder(nil)
		id := b.Add(geo.Pt(x, y), tags)
		if id != 0 {
			t.Fatalf("first photo got id %d", id)
		}
		id2 := b.Add(geo.Pt(x, y), tags)
		if id2 != 1 {
			t.Fatalf("second photo got id %d", id2)
		}
		c := b.Build()
		if c.Len() != 2 {
			t.Fatalf("corpus len %d, want 2", c.Len())
		}
		p := c.Get(0)
		if p.ID != 0 {
			t.Fatalf("photo 0 has id %d", p.ID)
		}
		if math.Float64bits(p.Loc.X) != math.Float64bits(x) || math.Float64bits(p.Loc.Y) != math.Float64bits(y) {
			t.Fatalf("location not preserved: got (%v, %v), want (%v, %v)", p.Loc.X, p.Loc.Y, x, y)
		}
		// Same input interned twice yields the same set.
		if !slices.Equal(p.Tags, c.Get(1).Tags) {
			t.Fatalf("same tags interned differently: %v vs %v", p.Tags, c.Get(1).Tags)
		}
		// Interning is idempotent: decoding the names and re-interning them
		// must reproduce the set exactly.
		names := c.Dict().Names(p.Tags)
		if len(names) != p.Tags.Len() {
			t.Fatalf("Names returned %d names for a %d-tag set", len(names), p.Tags.Len())
		}
		again := c.Dict().InternAll(names)
		if !slices.Equal(again, p.Tags) {
			t.Fatalf("re-interning decoded names changed the set: %v vs %v (names %q)", again, p.Tags, names)
		}
		// The set has no duplicates by construction.
		seen := map[vocab.ID]bool{}
		for _, tag := range p.Tags {
			if seen[tag] {
				t.Fatalf("duplicate tag id %d in interned set %v", tag, p.Tags)
			}
			seen[tag] = true
		}
	})
}
