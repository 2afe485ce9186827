package core_test

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/oracle"
)

// TestPlanWorkersMatchSerial: over the oracle world matrix, at every
// query ε and the shard halo, ε-plans built with 1, 2, 3 and 8 workers
// equal the serial plan, whose Cε(ℓ) is Slab.CellsNearSegmentInto
// segment by segment. Run under -race in CI.
func TestPlanWorkersMatchSerial(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		for _, cfg := range oracle.MatrixConfigs(seed, false) {
			w, err := cfg.BuildWorld()
			if err != nil {
				t.Fatal(err)
			}
			net, pois, _, _, err := w.Build()
			if err != nil {
				t.Fatal(err)
			}
			ix, err := core.NewIndex(net, pois, core.IndexConfig{CellSize: boundCell})
			if err != nil {
				t.Fatal(err)
			}
			epsilons := []float64{0.0012}
			for _, q := range cfg.Queries {
				if !slices.Contains(epsilons, q.Epsilon) {
					epsilons = append(epsilons, q.Epsilon)
				}
			}
			for _, eps := range epsilons {
				serial := ix.BuildPlan(eps, 1)
				var want []int32
				for sid := 0; sid < net.NumSegments(); sid++ {
					want = ix.Slab().CellsNearSegmentInto(net.Segment(network.SegmentID(sid)).Geom, eps, want[:0])
					if got := serial.Cells(sid); !slices.Equal(got, want) {
						t.Fatalf("%s ε=%g segment %d: plan cells %v, CellsNearSegmentInto %v", cfg.Label(), eps, sid, got, want)
					}
				}
				for _, workers := range []int{1, 2, 3, 8} {
					if got := ix.BuildPlan(eps, workers); !reflect.DeepEqual(got, serial) {
						t.Fatalf("%s ε=%g: the plan built with %d workers differs from the serial one", cfg.Label(), eps, workers)
					}
				}
			}
		}
	}
}
