package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
)

// BenchmarkSOISchedule times the two serving schedules on the one class
// the bound-ordered drain is known to lose on — a keyword set holding the
// planted "shop" at small k, where the global LBk closes the paper's
// filter after a fraction of SL1 (DESIGN §11, EXPERIMENTS.md) — and on the
// middle of the serving sweep on every axis (|Ψ| = 4 of 8, k = 10, ε =
// 0.0005). Berlin at scale 0.1, ε-plans warmed, no mass cache: what an
// executor over a fixed index evaluates with Drain, and a live one would
// with CostAware. Beside the time it reports the work each schedule adds
// and removes: cell visits and segments finalised per query.
func BenchmarkSOISchedule(b *testing.B) {
	ds, err := datagen.Generate(datagen.Scale(datagen.Berlin(), 0.1))
	if err != nil {
		b.Fatal(err)
	}
	ix, err := core.NewIndex(ds.Network, ds.POIs, core.IndexConfig{CellSize: residencyCell})
	if err != nil {
		b.Fatal(err)
	}
	queries := []struct {
		name string
		q    core.Query
	}{
		{"shop-k3-eps0.0005", core.Query{Keywords: []string{"shop"}, K: 3, Epsilon: 0.0005}},
		{"sweep-median", core.Query{Keywords: []string{"religion", "education", "food", "services"}, K: 10, Epsilon: 0.0005}},
	}
	for _, strat := range []core.Strategy{core.CostAware, core.Drain} {
		for _, c := range queries {
			b.Run(strat.String()+"/"+c.name, func(b *testing.B) {
				ix.Warm(c.q.Epsilon)
				var st core.Stats
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, st, err = ix.SOIWithStrategy(c.q, strat); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(st.CellVisits), "cellvisits/op")
				b.ReportMetric(float64(st.SegmentsFinal), "finalised/op")
			})
		}
	}
}
