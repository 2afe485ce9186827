package core

import (
	"math/rand"
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
