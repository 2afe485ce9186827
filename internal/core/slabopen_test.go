package core

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/geo"
	"repro/internal/network"
	"repro/internal/poi"
)

// slabOpened opens a second index over the index's slab, the way a
// snapshot load does.
func slabOpened(t *testing.T, ix *Index) *Index {
	t.Helper()
	opened, err := NewIndexFromSlab(ix.Network(), ix.POIs(), ix.Slab())
	if err != nil {
		t.Fatal(err)
	}
	return opened
}

// latticeScenario is a unit lattice: every segment has the same length,
// so SL3's order is decided by the id tie-break alone.
func latticeScenario(t *testing.T, n int) *Index {
	t.Helper()
	nb := network.NewBuilder()
	for i := 0; i <= n; i++ {
		row := make([]geo.Point, n+1)
		col := make([]geo.Point, n+1)
		for j := 0; j <= n; j++ {
			row[j] = geo.Pt(float64(j), float64(i))
			col[j] = geo.Pt(float64(i), float64(j))
		}
		nb.AddStreet("row", row)
		nb.AddStreet("col", col)
	}
	net, err := nb.Build()
	if err != nil {
		t.Fatal(err)
	}
	pb := poi.NewBuilder(nil)
	for i := 0; i < 4*n; i++ {
		pb.Add(geo.Pt(float64(i%n)+0.3, float64(i/n)+0.1), []string{"shop"})
	}
	ix, err := NewIndex(net, pb.Build(), IndexConfig{CellSize: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// TestSlabOpenSharesSL3Order: an index opened over a prebuilt slab holds
// the SL3 order a built one does — segments by (length, id), on random
// networks and on a lattice where every length ties.
func TestSlabOpenSharesSL3Order(t *testing.T) {
	rng := rand.New(rand.NewSource(2929))
	worlds := []*Index{latticeScenario(t, 5)}
	for i := 0; i < 10; i++ {
		worlds = append(worlds, randomScenario(rng))
	}
	for w, built := range worlds {
		net := built.Network()
		want := make([]network.SegmentID, net.NumSegments())
		for i := range want {
			want[i] = network.SegmentID(i)
		}
		sort.SliceStable(want, func(i, j int) bool {
			return net.Segment(want[i]).Length() < net.Segment(want[j]).Length()
		})
		if len(want) == 0 {
			t.Fatalf("world %d has no segments", w)
		}
		for name, ix := range map[string]*Index{"built": built, "slab-opened": slabOpened(t, built)} {
			if !slices.Equal(ix.segsByLen, want) {
				t.Fatalf("world %d: SL3 of the %s index is not the (length, id) order", w, name)
			}
		}
	}
}
