package core

import (
	"context"
	"sort"
)

// Fault-injection site names of the evaluation path (see internal/faults).
// Unarmed sites cost one atomic load; the chaos test suite arms them to
// wedge, delay or crash an evaluation at a precise point.
const (
	// SiteFilter is visited once per filter-loop iteration (Drain: per cell).
	SiteFilter = "core.filter"
	// SiteRefine is visited once per refine candidate.
	SiteRefine = "core.refine"
)

// cancelCheckEvery is the checkpoint stride: the filter and refine loops
// poll ctx.Err() every cancelCheckEvery iterations, keeping the hot path
// branch-cheap while bounding cancellation latency to a few dozen
// source-list pops.
const cancelCheckEvery = 32

// Strategy selects the source-list access schedule of the filtering
// phase. The paper states that "the correctness of our method is not
// affected by the access strategy" and describes alternating between SL1
// and SL3 with occasional SL2 accesses; both schedules below terminate
// with the same result set, to the bit.
type Strategy int

const (
	// CostAware is Index.SOI's schedule, a live executor's and Figure 4's
	// ablation of the access strategy: SL1 drives the search, SL3 is
	// consumed while its head is cheap to finalize, SL2 only while its
	// head is an outlier in neighboring-cell count.
	CostAware Strategy = iota
	// Drain has no filter loop: it marks every segment within ε of a
	// query-relevant cell as seen — SL1 unsorted, no SL2/SL3 accesses, no
	// LBk — and leaves all pruning to refine's bound-ordered drain. Every
	// executor over a fixed index serves with it. It loses only where a
	// global LBk closes the filter early (`shop` at k ≤ 5); DESIGN §11.
	Drain
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	switch s {
	case CostAware:
		return "cost-aware"
	case Drain:
		return "drain"
	default:
		return "strategy(?)"
	}
}

// SOI evaluates a k-SOI query with Algorithm 1: it pops cells and
// segments from the three ranked source lists, maintaining the seen
// lower bound LBk and the unseen upper bound UB, stops when LBk ≥ UB,
// and refines the seen segments to extract the k most interesting
// streets. The default cost-aware access strategy is used; see
// SOIWithStrategy for the ablation.
func (ix *Index) SOI(q Query) ([]StreetResult, Stats, error) {
	return ix.SOIWithStrategy(q, CostAware)
}

// SOIWithStrategy is SOI with an explicit source-list access strategy.
func (ix *Index) SOIWithStrategy(q Query, strat Strategy) ([]StreetResult, Stats, error) {
	return ix.SOIContext(context.Background(), q, strat, nil)
}

// SOIContext is the full evaluation entry point: SOIWithStrategy under a
// context. The fourth parameter is ignored, and every caller but the
// frozen bench/layers.go passes nil (benchcompat.go, ROADMAP 1(c)). An
// already-expired context returns its error without touching the index;
// a context cancelled mid-evaluation is observed at a cooperative
// checkpoint inside the filter and refine loops (every cancelCheckEvery
// iterations) and surfaces as the context's error with the partial Stats
// accumulated so far. On the non-cancelled path the checkpoints read
// state only, so results remain bit-identical to an uncancellable
// evaluation.
func (ix *Index) SOIContext(ctx context.Context, q Query, strat Strategy, _ any) ([]StreetResult, Stats, error) {
	if err := ctx.Err(); err != nil {
		return nil, Stats{}, err
	}
	query, err := ix.resolve(q)
	if err != nil {
		return nil, Stats{}, err
	}
	return ix.soiResolved(ctx, query, q.K, q.Epsilon, strat, nil)
}

// SortResults orders street results canonically: by decreasing interest,
// breaking ties by ascending street id. Every evaluator in this package
// reports results in this order; external reference implementations (the
// brute-force oracle in internal/oracle) use it so that result lists are
// comparable element-wise.
func SortResults(rs []StreetResult) {
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].Interest != rs[j].Interest {
			return rs[i].Interest > rs[j].Interest
		}
		return rs[i].Street < rs[j].Street
	})
}
