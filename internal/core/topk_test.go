package core

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// bruteKth computes the k-th largest value of a map, or 0 when fewer than
// k entries exist.
func bruteKth(m map[uint32]float64, k int) float64 {
	if len(m) < k {
		return 0
	}
	vals := make([]float64, 0, len(m))
	for _, v := range m {
		vals = append(vals, v)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(vals)))
	return vals[k-1]
}

// The tests address streets below testStreets and run in epoch 1 unless
// they say otherwise.
const testStreets = 32

func TestStreetTopKBasic(t *testing.T) {
	var tk slabTopK
	tk.init(2, testStreets)
	if got := tk.bound(1); got != 0 {
		t.Fatalf("empty Bound = %v", got)
	}
	tk.update(1, 5, 1)
	if got := tk.bound(1); got != 0 {
		t.Fatalf("one-street Bound = %v", got)
	}
	tk.update(2, 3, 1)
	if got := tk.bound(1); got != 3 {
		t.Fatalf("Bound = %v, want 3", got)
	}
	tk.update(3, 4, 1) // evicts street 2
	if got := tk.bound(1); got != 4 {
		t.Fatalf("Bound = %v, want 4", got)
	}
	tk.update(2, 10, 1) // street 2 re-enters, evicting street 3
	if got := tk.bound(1); got != 5 {
		t.Fatalf("Bound = %v, want 5", got)
	}
	// Same-street improvement.
	tk.update(1, 20, 1)
	if got := tk.bound(1); got != 10 {
		t.Fatalf("Bound = %v, want 10", got)
	}
	// Non-improving update is ignored.
	tk.update(1, 1, 1)
	if got := tk.bound(1); got != 10 {
		t.Fatalf("Bound after no-op update = %v, want 10", got)
	}
}

func TestStreetTopKK1(t *testing.T) {
	var tk slabTopK
	tk.init(1, testStreets)
	tk.update(7, 2, 1)
	if got := tk.bound(1); got != 2 {
		t.Fatalf("Bound = %v", got)
	}
	tk.update(8, 1, 1)
	if got := tk.bound(1); got != 2 {
		t.Fatalf("Bound = %v", got)
	}
	tk.update(8, 9, 1)
	if got := tk.bound(1); got != 9 {
		t.Fatalf("Bound = %v", got)
	}
}

// TestRefineHeapOrder: refine's candidate heap must pop exactly the
// sequence sort.Sort leaves — bounds descending, ties by ascending id —
// however heavily the bounds tie, and a drain that stops at the first
// bound strictly below a threshold must have popped exactly the sorted
// prefix at or above it.
func TestRefineHeapOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	values := []float64{0.5, 1, 2.25, 7}
	for _, n := range []int{0, 1, 2, 3, 17, 1000} {
		for trial := 0; trial < 20; trial++ {
			sids := make([]uint32, n)
			ubs := make([]float64, n)
			distinct := 1 + rng.Intn(len(values))
			for i, id := range rng.Perm(n) {
				sids[i] = uint32(id) * 3
				ubs[i] = values[rng.Intn(distinct)]
			}
			want := candSorter{sids: slices.Clone(sids), ubs: slices.Clone(ubs)}
			sort.Sort(&want)

			h := candSorter{sids: slices.Clone(sids), ubs: slices.Clone(ubs)}
			h.heapify()
			for i := 0; i < n; i++ {
				if ub := h.ubs[0]; ub != want.ubs[i] {
					t.Fatalf("n=%d trial %d: pop %d has bound %v, want %v", n, trial, i, ub, want.ubs[i])
				}
				if id := h.pop(); id != want.sids[i] {
					t.Fatalf("n=%d trial %d: pop %d = id %d, want %d", n, trial, i, id, want.sids[i])
				}
			}
			if len(h.sids) != 0 || len(h.ubs) != 0 {
				t.Fatalf("n=%d trial %d: %d left after %d pops", n, trial, len(h.sids), n)
			}

			// Stop at a threshold, as refine does at the k-th exact interest.
			bound := values[rng.Intn(len(values))]
			h = candSorter{sids: slices.Clone(sids), ubs: slices.Clone(ubs)}
			h.heapify()
			var popped []uint32
			for len(h.sids) > 0 && h.ubs[0] >= bound {
				popped = append(popped, h.pop())
			}
			end := sort.Search(n, func(i int) bool { return want.ubs[i] < bound })
			if !slices.Equal(popped, want.sids[:end]) {
				t.Fatalf("n=%d trial %d, bound %v: popped %v, want the sorted prefix %v", n, trial, bound, popped, want.sids[:end])
			}
		}
	}
}

// Property: against a brute-force oracle over random increase-only
// updates, the lazy structure always reports the exact k-th largest
// per-street best value. One structure serves every trial, each in its own
// epoch, so a trial also checks that the previous one's stamped slots are
// invisible to it.
func TestStreetTopKAgainstBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var tk slabTopK
	for trial := 0; trial < 200; trial++ {
		k := rng.Intn(5) + 1
		epoch := uint32(trial + 1)
		tk.init(k, testStreets)
		oracle := make(map[uint32]float64)
		for step := 0; step < 300; step++ {
			street := uint32(rng.Intn(20))
			v := rng.Float64() * 100
			tk.update(street, v, epoch)
			if v > oracle[street] {
				oracle[street] = v
			}
			want := bruteKth(oracle, k)
			if got := tk.bound(epoch); got != want {
				t.Fatalf("trial %d step %d: Bound = %v, want %v (k=%d)", trial, step, got, want, k)
			}
		}
	}
}
