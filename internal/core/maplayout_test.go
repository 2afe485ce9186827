package core

import (
	"math/rand"
	"testing"

	"repro/internal/geo"
	"repro/internal/network"
	"repro/internal/poi"
)

// slabOpened opens a second index over a compact twin's slab, the way a
// snapshot load does.
func slabOpened(t *testing.T, ix *Index) *Index {
	t.Helper()
	opened, err := NewIndexFromSlab(ix.Network(), ix.POIs(), compactTwin(t, ix).SlabIndex().Slab())
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

// TestSlabOpenSharesSL3Order: NewIndexFromSlab takes SL3 from the slab
// evaluator instead of sorting it a second time. The shared list must be
// the order NewIndex sorts — on random networks and on a lattice where
// every length ties — and must be the evaluator's own slice.
func TestSlabOpenSharesSL3Order(t *testing.T) {
	rng := rand.New(rand.NewSource(2929))
	worlds := []*Index{latticeScenario(t, 5)}
	for i := 0; i < 10; i++ {
		worlds = append(worlds, randomScenario(rng))
	}
	for w, eager := range worlds {
		opened := slabOpened(t, eager)
		if len(opened.segsByLen) != len(eager.segsByLen) || len(eager.segsByLen) == 0 {
			t.Fatalf("world %d: SL3 lengths %d vs %d", w, len(opened.segsByLen), len(eager.segsByLen))
		}
		for i := range eager.segsByLen {
			if opened.segsByLen[i] != eager.segsByLen[i] {
				t.Fatalf("world %d: SL3[%d] = %d on the slab-opened index, %d on NewIndex", w, i, opened.segsByLen[i], eager.segsByLen[i])
			}
		}
		if &opened.segsByLen[0] != &opened.six.segsByLen[0] {
			t.Fatalf("world %d: the slab-opened index holds its own copy of SL3", w)
		}
	}
}

// TestWarmSlabBackedWarmsThePlanOnly: Warm on a slab-backed index builds
// the slab ε-plan and nothing of the map layout — not the layout itself
// on a slab-opened index, not its ε-memos on a compact build. (A map-only
// index keeps warming all three memos: TestWarmCoversAllStructures.)
func TestWarmSlabBackedWarmsThePlanOnly(t *testing.T) {
	base := randomScenario(rand.New(rand.NewSource(77)))
	const eps = 0.3
	opened := slabOpened(t, base)
	for name, ix := range map[string]*Index{"compact": compactTwin(t, base), "slab-opened": opened} {
		ix.Warm(eps)
		ix.six.mu.RLock()
		_, planned := ix.six.plans[eps]
		ix.six.mu.RUnlock()
		if !planned {
			t.Errorf("%s: Warm left the slab ε-plan cold", name)
		}
		if a, b, c := ix.MapMemoSizes(); a+b+c != 0 {
			t.Errorf("%s: Warm built map-layout ε-memos (segCells=%d cellSegs=%d sl2=%d)", name, a, b, c)
		}
	}
	if opened.MapLayoutBuilt() {
		t.Error("Warm materialised the map layout of a slab-opened index")
	}
}
