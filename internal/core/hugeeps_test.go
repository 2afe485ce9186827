package core_test

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/network"
	"repro/internal/oracle"
	"repro/internal/poi"
	"repro/internal/vocab"
)

// TestHugeEpsilonMatchesOracle pins the lattice index conversion: at an ε
// whose cell span (width+2ε)/cellSize passes 2⁶³ the float→int conversion
// used to wrap before it was clamped, Cε(ℓ) came out empty and the index
// answered an empty list with a nil error while every POI is within ε of
// every segment. The answer must be the oracle's, Float64bits-equal.
func TestHugeEpsilonMatchesOracle(t *testing.T) {
	nb := network.NewBuilder()
	nb.AddStreet("long", []geo.Point{geo.Pt(0, 0), geo.Pt(0.004, 0), geo.Pt(0.008, 0.001)})
	nb.AddStreet("short", []geo.Point{geo.Pt(0.001, 0.003), geo.Pt(0.002, 0.003)})
	nb.AddStreet("far", []geo.Point{geo.Pt(0.009, 0.009), geo.Pt(0.0095, 0.0099)})
	net, err := nb.Build()
	if err != nil {
		t.Fatal(err)
	}
	pb := poi.NewBuilder(vocab.NewDictionary())
	for _, p := range []geo.Point{geo.Pt(0.0005, 0.0002), geo.Pt(0.0015, 0.0031), geo.Pt(0.0091, 0.0093), geo.Pt(0.005, 0.005), geo.Pt(0, 0.0099)} {
		pb.Add(p, []string{"shop"})
	}
	pois := pb.Build()
	ix, err := core.NewIndex(net, pois, core.IndexConfig{CellSize: 0.0005})
	if err != nil {
		t.Fatal(err)
	}
	for _, eps := range []float64{0.001, 1e17, 1e100} {
		q := core.Query{Keywords: []string{"shop"}, K: 3, Epsilon: eps}
		want, err := oracle.TopK(net, pois, q)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) != 3 {
			t.Fatalf("ε=%g: oracle ranks %d streets, fixture should rank 3", eps, len(want))
		}
		got, _, err := ix.SOI(q)
		if err != nil {
			t.Fatalf("ε=%g: %v", eps, err)
		}
		if len(got) != len(want) {
			t.Fatalf("ε=%g: index ranks %d streets, oracle %d", eps, len(got), len(want))
		}
		for i := range want {
			g, w := got[i], want[i]
			if g.Street != w.Street || g.BestSegment != w.BestSegment ||
				math.Float64bits(g.Interest) != math.Float64bits(w.Interest) ||
				math.Float64bits(g.Mass) != math.Float64bits(w.Mass) {
				t.Errorf("ε=%g rank %d: index %+v, oracle %+v", eps, i, g, w)
			}
		}
	}
}
