package engine

import "testing"

// TestLRUWeightBudget: the bound is on summed weight, eviction runs from
// the least recently used end, and Put reports what it evicted and how
// the held weight moved.
func TestLRUWeightBudget(t *testing.T) {
	c := NewLRU[string, int](10)
	for _, step := range []struct {
		key             string
		weight          int64
		evicted         int
		delta, held     int64
		len             int
		present, absent []string
	}{
		{"a", 4, 0, 4, 4, 1, []string{"a"}, nil},
		{"b", 4, 0, 4, 8, 2, []string{"a", "b"}, nil},
		// The lookups above left a older than b: c pushes a out.
		{"c", 4, 1, 0, 8, 2, []string{"b", "c"}, []string{"a"}},
		// One heavy value pushes out both.
		{"d", 9, 2, 1, 9, 1, []string{"d"}, []string{"b", "c"}},
		// Replacing a value re-weighs it.
		{"d", 3, 0, -6, 3, 1, []string{"d"}, nil},
		// Heavier than the whole budget: refused, nothing else disturbed.
		{"e", 11, 0, 0, 3, 1, []string{"d"}, []string{"e"}},
	} {
		evicted, delta := c.Put(step.key, len(step.key), step.weight)
		if evicted != step.evicted || delta != step.delta || c.Weight() != step.held || c.Len() != step.len {
			t.Fatalf("Put(%q, weight %d): evicted %d, delta %d, holding %d in %d entries; want %d, %d, %d in %d",
				step.key, step.weight, evicted, delta, c.Weight(), c.Len(), step.evicted, step.delta, step.held, step.len)
		}
		for _, k := range step.absent {
			if _, ok := c.Get(k); ok {
				t.Fatalf("after Put(%q): %q is still held", step.key, k)
			}
		}
		for _, k := range step.present {
			if _, ok := c.Get(k); !ok {
				t.Fatalf("after Put(%q): %q is gone", step.key, k)
			}
		}
	}
}
