package vocab

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

func mathAbs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

func TestDictionaryIntern(t *testing.T) {
	d := NewDictionary()
	a := d.Intern("Shop")
	b := d.Intern("shop")
	c := d.Intern("  SHOP ")
	if a != b || b != c {
		t.Fatalf("normalization failed: %d %d %d", a, b, c)
	}
	e := d.Intern("food")
	if e == a {
		t.Fatal("distinct keywords share an id")
	}
	if d.Len() != 2 {
		t.Fatalf("Len = %d, want 2", d.Len())
	}
	if d.Name(a) != "shop" || d.Name(e) != "food" {
		t.Fatalf("Name round-trip failed: %q %q", d.Name(a), d.Name(e))
	}
}

func TestDictionaryZeroValue(t *testing.T) {
	var d Dictionary
	id := d.Intern("x")
	if got, ok := d.Lookup("X"); !ok || got != id {
		t.Fatalf("Lookup after zero-value Intern = %d, %v", got, ok)
	}
}

func TestDictionaryLookup(t *testing.T) {
	d := NewDictionary()
	d.Intern("shop")
	if _, ok := d.Lookup("shop"); !ok {
		t.Error("known keyword not found")
	}
	if _, ok := d.Lookup("museum"); ok {
		t.Error("unknown keyword found")
	}
}

func TestDictionaryInternAll(t *testing.T) {
	d := NewDictionary()
	s := d.InternAll([]string{"b", "a", "b", "C", "c"})
	if s.Len() != 3 {
		t.Fatalf("InternAll Len = %d, want 3", s.Len())
	}
	s.validate()
	names := d.Names(s)
	want := map[string]bool{"a": true, "b": true, "c": true}
	for _, n := range names {
		if !want[n] {
			t.Errorf("unexpected name %q", n)
		}
	}
}

func TestDictionaryLookupAll(t *testing.T) {
	d := NewDictionary()
	d.Intern("shop")
	d.Intern("food")
	s, unknown := d.LookupAll([]string{"shop", "museum", "food", "zoo"})
	if s.Len() != 2 {
		t.Fatalf("LookupAll Len = %d, want 2", s.Len())
	}
	if !reflect.DeepEqual(unknown, []string{"museum", "zoo"}) {
		t.Fatalf("unknown = %v", unknown)
	}
}

func TestNewSetDedup(t *testing.T) {
	s := NewSet([]ID{5, 1, 5, 3, 1, 1})
	if !slices.Equal(s, Set{1, 3, 5}) {
		t.Fatalf("NewSet = %v", s)
	}
	s.validate()
	if NewSet(nil) != nil {
		t.Error("NewSet(nil) should be nil")
	}
}

func TestSetAlgebra(t *testing.T) {
	a := Set{1, 2, 3, 7}
	b := Set{2, 3, 5}
	if got := a.Intersect(b); !slices.Equal(got, Set{2, 3}) {
		t.Errorf("Intersect = %v", got)
	}
	if got := a.IntersectCount(b); got != 2 {
		t.Errorf("IntersectCount = %d", got)
	}
	if !a.Intersects(b) {
		t.Error("Intersects = false")
	}
	if a.Intersects(Set{4, 6}) {
		t.Error("disjoint Intersects = true")
	}
	if a.Intersects(nil) || Set(nil).Intersects(a) {
		t.Error("nil Intersects = true")
	}
}

func TestJaccardDistance(t *testing.T) {
	tests := []struct {
		name string
		a, b Set
		want float64
	}{
		{"identical", Set{1, 2}, Set{1, 2}, 0},
		{"disjoint", Set{1}, Set{2}, 1},
		{"half", Set{1, 2}, Set{2, 3}, 1 - 1.0/3},
		{"both empty", nil, nil, 0},
		{"one empty", Set{1}, nil, 1},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.a.JaccardDistance(tc.b); mathAbs(got-tc.want) > 1e-12 {
				t.Errorf("Jaccard = %v, want %v", got, tc.want)
			}
		})
	}
}

func randomSet(rng *rand.Rand, maxID ID, n int) Set {
	ids := make([]ID, n)
	for i := range ids {
		ids[i] = ID(rng.Intn(int(maxID)))
	}
	return NewSet(ids)
}

// Properties of the set algebra checked on random inputs.
func TestSetAlgebraProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		a := randomSet(rng, 30, rng.Intn(15))
		b := randomSet(rng, 30, rng.Intn(15))
		inter := a.Intersect(b)
		inter.validate()
		if a.IntersectCount(b) != len(inter) {
			t.Fatalf("IntersectCount = %d, |∩| = %d for %v %v", a.IntersectCount(b), len(inter), a, b)
		}
		if !slices.Equal(inter, b.Intersect(a)) {
			t.Fatalf("intersect not commutative for %v %v", a, b)
		}
		if a.Intersects(b) != (len(inter) > 0) {
			t.Fatalf("Intersects mismatch for %v %v", a, b)
		}
		// Jaccard symmetry and range.
		dj := a.JaccardDistance(b)
		if dj != b.JaccardDistance(a) || dj < 0 || dj > 1 {
			t.Fatalf("Jaccard invalid: %v", dj)
		}
	}
}

// Jaccard distance satisfies the triangle inequality (it is a metric).
func TestJaccardTriangleInequality(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 1000; i++ {
		a := randomSet(rng, 12, rng.Intn(8)+1)
		b := randomSet(rng, 12, rng.Intn(8)+1)
		c := randomSet(rng, 12, rng.Intn(8)+1)
		if a.JaccardDistance(c) > a.JaccardDistance(b)+b.JaccardDistance(c)+1e-12 {
			t.Fatalf("triangle inequality violated: %v %v %v", a, b, c)
		}
	}
}

func TestNewSetSortedProperty(t *testing.T) {
	f := func(raw []uint32) bool {
		ids := make([]ID, len(raw))
		for i, v := range raw {
			ids[i] = ID(v % 1000)
		}
		s := NewSet(ids)
		for i := 1; i < len(s); i++ {
			if s[i] <= s[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFreq(t *testing.T) {
	d := NewDictionary()
	shop := d.Intern("shop")
	food := d.Intern("food")
	d.Intern("park")
	f := NewFreq(d)
	if len(f) != 3 {
		t.Fatalf("NewFreq len = %d", len(f))
	}
	f.AddSet(Set{shop, food}, 1)
	f.AddSet(Set{shop}, 2)
	if f[shop] != 3 || f[food] != 1 {
		t.Fatalf("AddSet failed: %v", f)
	}
	if got := f.L1(); got != 4 {
		t.Errorf("L1 = %v", got)
	}
	if got := f.SumOver(Set{shop}); got != 3 {
		t.Errorf("SumOver = %v", got)
	}
	if got := f.SumOver(Set{99}); got != 0 {
		t.Errorf("SumOver out-of-range = %v", got)
	}
	if got := f.Support(); !slices.Equal(got, Set{shop, food}) {
		t.Errorf("Support = %v", got)
	}
}

func TestNormalize(t *testing.T) {
	cases := map[string]string{
		"  Shop ":   "shop",
		"FOOD":      "food",
		"café":      "café",
		"":          "",
		"\tmix ED ": "mix ed",
	}
	for in, want := range cases {
		if got := Normalize(in); got != want {
			t.Errorf("Normalize(%q) = %q, want %q", in, got, want)
		}
	}
}

// Property: Intersect partitions the left operand into the members the
// right operand has and those it has not.
func TestDiffIntersectPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 500; i++ {
		a := randomSet(rng, 20, rng.Intn(10))
		b := randomSet(rng, 20, rng.Intn(10))
		inter := a.Intersect(b)
		for _, id := range inter {
			if !slices.Contains(a, id) {
				t.Fatalf("a∩b = %v holds %d, which a = %v lacks", inter, id, a)
			}
		}
		for _, id := range a {
			if slices.Contains(inter, id) != slices.Contains(b, id) {
				t.Fatalf("a∩b = %v misplaces %d of a = %v (b = %v)", inter, id, a, b)
			}
		}
	}
}

// TestCloneIsIndependentAndIDStable: a clone shares nothing with its
// source, and interning into it assigns the ids a fresh dictionary would
// after interning the source's keywords in id order and then the same new
// ones — the property epoch-to-epoch dictionary reuse rests on.
func TestCloneIsIndependentAndIDStable(t *testing.T) {
	src := NewDictionary()
	for _, k := range []string{"shop", "Cafe ", "park", "shop"} {
		src.Intern(k)
	}
	clone := src.Clone()
	more := []string{"museum", "park", "zeppelin", "cafe", "Museum"}
	got := clone.InternAll(append([]string(nil), more...))

	fresh := NewDictionary()
	for id := 0; id < src.Len(); id++ {
		fresh.Intern(src.Name(ID(id)))
	}
	want := fresh.InternAll(append([]string(nil), more...))
	if !slices.Equal(got, want) || clone.Len() != fresh.Len() {
		t.Fatalf("clone interned %v (%d keywords), a fresh dictionary %v (%d)", got, clone.Len(), want, fresh.Len())
	}
	for id := 0; id < fresh.Len(); id++ {
		if clone.Name(ID(id)) != fresh.Name(ID(id)) {
			t.Fatalf("id %d: clone %q, fresh %q", id, clone.Name(ID(id)), fresh.Name(ID(id)))
		}
	}
	if src.Len() != 3 {
		t.Fatalf("interning into the clone grew the source to %d keywords", src.Len())
	}
	if _, ok := src.Lookup("zeppelin"); ok {
		t.Fatal("a keyword interned into the clone is visible in the source")
	}
	var zero Dictionary
	if c := zero.Clone(); c.Len() != 0 || c.Intern("a") != 0 {
		t.Fatal("clone of the zero dictionary is not an empty, usable dictionary")
	}
}
