package soi

import (
	"context"
	"reflect"
	"testing"
)

// TestMatcherMemoKeepsRecentRadii: the per-radius matcher memo is an LRU,
// not a table the first eight radii ever requested own for good. After
// nine distinct radii the most recently used ones are still held — the
// same matcher comes back, not a rebuilt one — only the least recently
// used was dropped, and answers do not depend on which case a request hit.
func TestMatcherMemoKeepsRecentRadii(t *testing.T) {
	e := fixtureEngine(t)
	q := TrajectoryQuery{
		Traces:   [][]Point{{{0, 0.0001}, {0.001, 0.0001}, {0.002, 0.0001}}},
		Keywords: []string{"shop"}, K: 3, Epsilon: 0.0005,
	}
	radii := make([]float64, trajMatcherCacheSize+1)
	for i := range radii {
		radii[i] = 0.0002 + 0.0001*float64(i)
	}
	first := e.trajMatcherLazy(radii[0])
	for _, r := range radii[1:] {
		q.Radius = r
		want, err := e.TrajectorySOICtx(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		held := e.trajMatcherLazy(r)
		got, err := e.TrajectorySOICtx(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) == 0 || !reflect.DeepEqual(got, want) {
			t.Fatalf("radius %g: %+v on a held matcher, %+v on a fresh one", r, got, want)
		}
		if e.trajMatcherLazy(r) != held {
			t.Fatalf("radius %g rebuilt although it is the most recently used", r)
		}
	}
	if n := e.matchers.Len(); n != trajMatcherCacheSize {
		t.Fatalf("memo holds %d matchers, want %d", n, trajMatcherCacheSize)
	}
	if e.trajMatcherLazy(radii[0]) == first {
		t.Fatal("the least recently used radius survived nine distinct ones")
	}
}
