package oracle

import (
	"fmt"
	"testing"
)

// TestDiffInterleaved runs the interleaved differential mode over a few
// seeds: concurrent queries against a live-publishing ingestor must
// answer bit-identically to the brute-force oracle at every epoch,
// the compacted one included. The full 50-seed matrix runs through
// soicheck -interleaved in CI.
func TestDiffInterleaved(t *testing.T) {
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			c := MatrixConfigs(seed, true)[0]
			divs, rep, err := DiffInterleaved(c, InterleaveOptions{})
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range divs {
				t.Error(d.String())
			}
			if rep.Rounds == 0 || rep.Streamed == 0 {
				t.Fatalf("nothing streamed: %+v", rep)
			}
			if rep.FinalEpoch != uint64(rep.Rounds)+2 {
				t.Fatalf("final epoch %d after %d rounds, want %d", rep.FinalEpoch, rep.Rounds, rep.Rounds+2)
			}
			if rep.Answers < len(c.Queries) {
				t.Fatalf("only %d answers cross-checked over %d queries", rep.Answers, len(c.Queries))
			}
		})
	}
}

// TestDiffInterleavedWeighted covers the weighted-mass path under
// interleaving: prestige weights must survive the delta log bit-exactly.
func TestDiffInterleavedWeighted(t *testing.T) {
	c := MatrixConfigs(1, true)[0]
	c.Weighted = true
	divs, _, err := DiffInterleaved(c, InterleaveOptions{Rounds: 2, QueryWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range divs {
		t.Error(d.String())
	}
}
