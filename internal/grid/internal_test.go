package grid

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestInvSortMatchesComparison: the radix sort of an inverted range
// orders entries exactly as the comparison sort does — by decreasing
// weight, ties by ascending cell — on ranges around the radix cutoff,
// with integer, fractional, zero and negative-zero weights; a range with
// a negative or NaN weight falls back to the comparison sort.
func TestInvSortMatchesComparison(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	weight := []func() float64{
		func() float64 { return float64(1 + rng.Intn(6)) },
		func() float64 { return float64(rng.Intn(3)) / 4 },
		func() float64 { return rng.ExpFloat64() * 1e6 },
		func() float64 { return [...]float64{0, math.Copysign(0, -1), 1e-300, 1}[rng.Intn(4)] },
	}
	var sc invScratch
	for round := 0; round < 200; round++ {
		n := rng.Intn(3 * radixMin)
		w := weight[round%len(weight)]
		es := make([]invEntry, n)
		for i := range es {
			es[i] = invEntry{int32(i * 3), w()}
		}
		if round%10 == 9 && n > 0 {
			es[rng.Intn(n)].weight = [...]float64{-1, math.NaN()}[rng.Intn(2)]
		}
		want := slices.Clone(es)
		sortInvCmp(want)
		sc.sort(es)
		for i := range es {
			if es[i].ord != want[i].ord || math.Float64bits(es[i].weight) != math.Float64bits(want[i].weight) {
				t.Fatalf("round %d (n=%d): entry %d is %+v, want %+v", round, n, i, es[i], want[i])
			}
		}
	}
}

// TestSortByCellMatchesComparison: sortByCell orders object ids by cell
// id, ties by object id, exactly as a comparison sort does, on both sides
// of the radix cutoff, over cell ids of one, two and three 11-bit digits.
func TestSortByCellMatchesComparison(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for round := 0; round < 300; round++ {
		n := radixMin - 8 + rng.Intn(17)
		span := [...]int{1, 40, 1 << 11, 1 << 20, 1 << 30}[round%5]
		cids := make([]CellID, n)
		for i := range cids {
			cids[i] = CellID(rng.Intn(span))
		}
		want := make([]uint32, n)
		for i := range want {
			want[i] = uint32(i)
		}
		slices.SortStableFunc(want, func(a, b uint32) int { return cmp.Compare(cids[a], cids[b]) })
		if got := sortByCell(cids); !slices.Equal(got, want) {
			t.Fatalf("round %d (n=%d, span %d): sortByCell = %v, want %v", round, n, span, got, want)
		}
	}
}

// TestRowStartMatchesBinarySearch: rowStart finds the first id at or
// above the target exactly as a binary search over the whole list does,
// from 0 and from every valid lower bound, on dense, sparse and clumped
// id lists.
func TestRowStartMatchesBinarySearch(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for round := 0; round < 300; round++ {
		var ids []int32
		id := int32(rng.Intn(50))
		for n := rng.Intn(200); len(ids) < n; {
			ids = append(ids, id)
			switch round % 3 {
			case 0:
				id++ // dense
			case 1:
				id += 1 + int32(rng.Intn(40)) // sparse
			default:
				id += 1 + int32(rng.Intn(2))*int32(rng.Intn(500)) // clumped
			}
		}
		for q := 0; q < 50; q++ {
			first := int32(rng.Intn(int(id) + 60))
			want, _ := slices.BinarySearch(ids, first)
			for from := 0; from <= want; from++ {
				if got := rowStart(ids, from, first); got != want {
					t.Fatalf("round %d: rowStart(from=%d, first=%d) = %d, want %d (ids %v)", round, from, first, got, want, ids)
				}
			}
		}
	}
}
