package grid_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/geo"
	"repro/internal/grid"
	"repro/internal/network"
	"repro/internal/oracle"
)

// nearEpsilons are the serving sweep's three ε and the shard halo.
var nearEpsilons = []float64{0.00025, 0.0005, 0.001, 0.0012}

// TestCellNearMatchesRectDistance: on Berlin 0.1 and the oracle matrix
// worlds, at the sweep's ε and the shard halo, the cell predicate agrees
// with Rect.DistToSegment(seg) <= eps on every cell of the lattice span
// every segment's ε-expanded bounds cover, empty cells included.
func TestCellNearMatchesRectDistance(t *testing.T) {
	type world struct {
		label string
		net   *network.Network
		lat   grid.Lattice
	}
	var worlds []world
	add := func(label string, net *network.Network, ix *core.Index) {
		worlds = append(worlds, world{label, net, ix.Slab().Lattice()})
	}
	ds, err := datagen.Generate(datagen.Scale(datagen.Berlin(), 0.1))
	if err != nil {
		t.Fatal(err)
	}
	ix, err := core.NewIndex(ds.Network, ds.POIs, core.IndexConfig{CellSize: 0.0005})
	if err != nil {
		t.Fatal(err)
	}
	add("berlin 0.1", ds.Network, ix)
	for seed := int64(0); seed < 3; seed++ {
		for _, c := range oracle.MatrixConfigs(seed, false) {
			w, err := c.BuildWorld()
			if err != nil {
				t.Fatal(err)
			}
			net, pois, _, _, err := w.Build()
			if err != nil {
				t.Fatal(err)
			}
			for _, cell := range []float64{0.0005, 0.00013} {
				ix, err := core.NewIndex(net, pois, core.IndexConfig{CellSize: cell})
				if err != nil {
					t.Fatal(err)
				}
				add(fmt.Sprintf("%s cell=%g", c.Label(), cell), net, ix)
			}
		}
	}
	var pairs, near int
	for _, w := range worlds {
		for sid := 0; sid < w.net.NumSegments(); sid++ {
			seg := w.net.Segment(network.SegmentID(sid)).Geom
			for _, eps := range nearEpsilons {
				ix0, ix1, iy0, iy1 := w.lat.Span(seg.Bounds().Expand(eps))
				for iy := iy0; iy <= iy1; iy++ {
					for ix := ix0; ix <= ix1; ix++ {
						r := w.lat.CellRect(grid.CellID(ix + iy*w.lat.NX))
						want := r.DistToSegment(seg) <= eps
						if got := grid.CellNear(r, seg, eps); got != want {
							t.Fatalf("%s segment %d ε=%g cell %v: predicate %v, Rect.DistToSegment %v", w.label, sid, eps, r, got, want)
						}
						pairs++
						if want {
							near++
						}
					}
				}
			}
		}
	}
	t.Logf("%d worlds, %d (segment, cell, ε) triples, %d near", len(worlds), pairs, near)
}

// FuzzCellNear: for any rectangle, segment and ε the cell predicate
// decides what Rect.DistToSegment(seg) <= eps decides. The seeds put
// segments exactly ε from a corner and from an edge, move ε by one ulp
// either way, and cover zero-length segments, segments along an edge,
// ε at and past the range the squared comparison handles, and segments
// whose corner distances are NaN.
func FuzzCellNear(f *testing.F) {
	up := func(x float64) float64 { return math.Nextafter(x, math.Inf(1)) }
	down := func(x float64) float64 { return math.Nextafter(x, math.Inf(-1)) }
	// A 3-4-5 triangle puts (1.3, 1.4) exactly 0.5 from the corner (1, 1)
	// of the unit cell; x = 1.25 is exactly 0.25 from its right edge.
	for _, eps := range []float64{0.5, up(0.5), down(0.5)} {
		f.Add(0.0, 0.0, 1.0, 1.0, 1.3, 1.4, 2.0, 3.0, eps)
	}
	for _, eps := range []float64{0.25, up(0.25), down(0.25)} {
		f.Add(0.0, 0.0, 1.0, 1.0, 1.25, -1.0, 1.25, 2.0, eps)
	}
	// A serving-sized cell and ε: a horizontal segment one ε above the
	// top edge, and a point-like segment one ε from a corner diagonally.
	const x0, y0, cell, eps = 13.25, 52.5, 0.0005, 0.0005
	for _, e := range []float64{eps, up(eps), down(eps)} {
		f.Add(x0, y0, x0+cell, y0+cell, x0-0.001, y0+cell+eps, x0+0.002, y0+cell+eps, e)
		d := eps / math.Sqrt2
		f.Add(x0, y0, x0+cell, y0+cell, x0+cell+d, y0+cell+d, x0+cell+d, y0+cell+d, e)
	}
	// Zero-length segments inside, on a corner and outside the cell.
	f.Add(0.0, 0.0, 1.0, 1.0, 0.5, 0.5, 0.5, 0.5, 0.1)
	f.Add(0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.1)
	f.Add(0.0, 0.0, 1.0, 1.0, 1.6, 0.5, 1.6, 0.5, 0.6)
	// Segments lying on an edge and along an edge's line past the corner,
	// and one crossing the cell far from every corner: only the
	// intersection test finds it near.
	f.Add(0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0, 0.0, 0.001)
	f.Add(0.0, 0.0, 1.0, 1.0, 1.0, 0.2, 1.0, 0.8, 0.001)
	f.Add(0.0, 0.0, 1.0, 1.0, 1.5, 0.0, 3.0, 0.0, 0.5)
	f.Add(0.0, 0.0, 1.0, 1.0, -1.0, 0.5, 2.0, 0.5, 0.001)
	// ε at the bounds of the squared comparison and far past them.
	for _, e := range []float64{1e-150, down(1e-150), 1e150, up(1e150), 1e300, math.MaxFloat64, math.Inf(1), 0, -1, math.NaN(), 5e-324} {
		f.Add(0.0, 0.0, 1.0, 1.0, 3.0, 3.0, 4.0, 5.0, e)
	}
	f.Add(0.0, 0.0, 1e-160, 1e-160, 2e-160, 0.0, 3e-160, 1e-160, 1e-160)
	f.Add(-1e200, -1e200, 1e200, 1e200, 1e250, 0.0, 1e250, 1.0, 1e140)
	// An endpoint 1e-4 below the bottom edge whose other end is so far
	// away, infinite or NaN that every corner's distance is NaN: the
	// reference drops each edge's endpoint distances behind it.
	for _, b := range [][2]float64{{1e308, -1e308}, {math.Inf(1), 0}, {math.NaN(), math.NaN()}} {
		f.Add(0.0, 0.0, 4.0, 4.0, 2.0, -1e-4, b[0], b[1], 1e-3)
	}
	// A negative ε whose square exceeds the distance squared, with the
	// segment near the cell and with an endpoint inside it.
	f.Add(0.0, 0.0, 1.0, 1.0, 1.3, 1.4, 2.0, 3.0, -1.0)
	f.Add(0.0, 0.0, 1.0, 1.0, 0.5, 0.5, 0.7, 0.7, -1.0)
	// Squares in the subnormal range, where each of dx², dy² and ε²
	// rounds by a sizeable fraction of its value: dx² + dy² rounds below
	// ε² although the distance exceeds ε.
	root := math.Sqrt(5e-324) // the square root of the least subnormal
	tiny, tinyEps := math.Sqrt(10.4)*root, math.Sqrt(20.6)*root
	f.Add(0.0, 0.0, 0.0, 0.0, tiny, tiny, tiny, tiny, tinyEps)
	f.Fuzz(func(t *testing.T, minX, minY, maxX, maxY, ax, ay, bx, by, eps float64) {
		r := geo.R(minX, minY, maxX, maxY)
		seg := geo.Segment{A: geo.Pt(ax, ay), B: geo.Pt(bx, by)}
		want := r.DistToSegment(seg) <= eps
		if got := grid.CellNear(r, seg, eps); got != want {
			t.Fatalf("rect %v segment %v ε=%v: predicate %v, Rect.DistToSegment %v (distance %v)", r, seg, eps, got, want, r.DistToSegment(seg))
		}
	})
}
