package vocab

import (
	"slices"
	"strings"
	"testing"
)

// FuzzNormalize checks the normalization invariants interning relies on:
// idempotence (a normalized keyword re-normalizes to itself) and
// dictionary consistency (interning any string yields an id whose stored
// name is the normalized form and which Lookup finds again under every
// spelling that normalizes the same way).
func FuzzNormalize(f *testing.F) {
	f.Add("Shop")
	f.Add("  food  ")
	f.Add("ÄÖÜ straße")
	f.Add("ſ") // long s: ToLower("ſ") = "ſ", distinct from "s"
	f.Add(" nbsp ")
	f.Add("")
	f.Fuzz(func(t *testing.T, s string) {
		n := Normalize(s)
		if again := Normalize(n); again != n {
			t.Fatalf("Normalize not idempotent: %q → %q → %q", s, n, again)
		}
		d := NewDictionary()
		id := d.Intern(s)
		if got := d.Name(id); got != n {
			t.Fatalf("Name(Intern(%q)) = %q, want %q", s, got, n)
		}
		if lid, ok := d.Lookup(s); !ok || lid != id {
			t.Fatalf("Lookup(%q) = %d,%v after Intern returned %d", s, lid, ok, id)
		}
		if lid, ok := d.Lookup(strings.ToUpper(s)); ok && lid != id {
			// Upper-casing may change the normalized form (e.g. ß→SS), in
			// which case the keyword is legitimately unknown — but if it
			// is known it must be the same entry.
			if Normalize(strings.ToUpper(s)) == n {
				t.Fatalf("case-variant lookup returned different id")
			}
		}
		if d.Intern(s) != id || d.Len() != 1 {
			t.Fatalf("re-interning %q changed the dictionary", s)
		}
	})
}

// FuzzSetOps checks NewSet and the intersection operations on arbitrary
// id multisets.
func FuzzSetOps(f *testing.F) {
	f.Add([]byte{1, 2, 3}, []byte{3, 4})
	f.Add([]byte{}, []byte{0, 0, 0})
	f.Add([]byte{255, 0, 128}, []byte{128})
	f.Fuzz(func(t *testing.T, ab, bb []byte) {
		toSet := func(bs []byte) Set {
			ids := make([]ID, len(bs))
			for i, b := range bs {
				ids[i] = ID(b)
			}
			return NewSet(ids)
		}
		a, b := toSet(ab), toSet(bb)
		for _, s := range []Set{a, b} {
			for i := 1; i < len(s); i++ {
				if s[i] <= s[i-1] {
					t.Fatalf("NewSet not strictly sorted: %v", s)
				}
			}
		}
		inter := a.Intersect(b)
		if a.IntersectCount(b) != len(inter) {
			t.Fatalf("IntersectCount = %d, Intersect len = %d", a.IntersectCount(b), len(inter))
		}
		if a.Intersects(b) != (len(inter) > 0) {
			t.Fatal("Intersects disagrees with Intersect")
		}
		for _, id := range inter {
			if !slices.Contains(a, id) || !slices.Contains(b, id) {
				t.Fatalf("intersection member %d missing from an operand", id)
			}
		}
		for _, id := range a {
			if slices.Contains(b, id) && !slices.Contains(inter, id) {
				t.Fatalf("intersection lost %d", id)
			}
		}
		if jd := a.JaccardDistance(b); jd < 0 || jd > 1 {
			t.Fatalf("Jaccard distance %v outside [0,1]", jd)
		}
	})
}
