package oracle

import (
	"testing"
)

// TestDifferentialMatrixRemote runs a small slice of the matrix with the
// cross-process comparison enabled: every shard behind a real loopback
// HTTP server, gathered by the fault-tolerant remote client, must stay
// bit-identical to the brute-force oracle. One seed in quick mode with a
// single cell size and two tile counts keeps the HTTP round trips
// affordable for `go test`; soicheck -remote sweeps the full range.
func TestDifferentialMatrixRemote(t *testing.T) {
	if testing.Short() {
		t.Skip("remote matrix crosses the wire per shard per query")
	}
	opt := Options{
		Remote:      true,
		CellSizes:   []float64{0.0005},
		ShardCounts: []int{2, 9},
		SkipEngine:  true,
	}
	for _, cfg := range MatrixConfigs(1, true) {
		w, err := cfg.BuildWorld()
		if err != nil {
			t.Fatalf("%s: %v", cfg.Label(), err)
		}
		divs, err := DiffWorld(w, cfg.Queries, opt)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Label(), err)
		}
		for _, d := range divs {
			t.Errorf("%s: %s", cfg.Label(), d)
		}
	}
}
