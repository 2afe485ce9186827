package oracle

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/core"
	"repro/internal/diversify"
	"repro/internal/engine"
	"repro/internal/network"
	"repro/internal/snapshot"
)

// Divergence records one disagreement between an implementation and the
// reference answer for a query over a world.
type Divergence struct {
	// Impl names the implementation that disagreed (e.g. "soi/cost-aware",
	// "engine/batch", "metamorphic/eps-monotonicity").
	Impl string
	// CellSize is the index cell size under which the divergence appeared
	// (0 when the check is index-free).
	CellSize float64
	// Query is the diverging query (zero-valued for non-query checks).
	Query core.Query
	// Detail describes the first observed mismatch.
	Detail string
}

// String renders the divergence as a one-line report.
func (d Divergence) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s", d.Impl)
	if d.CellSize > 0 {
		fmt.Fprintf(&b, " [cell=%g]", d.CellSize)
	}
	if len(d.Query.Keywords) > 0 {
		fmt.Fprintf(&b, " q=⟨Ψ=%v,k=%d,ε=%g⟩", d.Query.Keywords, d.Query.K, d.Query.Epsilon)
	}
	fmt.Fprintf(&b, ": %s", d.Detail)
	return b.String()
}

// Options configures a differential run.
type Options struct {
	// CellSizes are the index cell sizes to sweep; correctness must not
	// depend on this free parameter. Empty means DefaultCellSizes.
	CellSizes []float64
	// Workers is the parallel engine's worker count; 0 means 4.
	Workers int
	// SkipEngine disables the parallel-engine comparison (the shrinker
	// uses this to keep predicate evaluations cheap).
	SkipEngine bool
	// SkipShards disables the sharded scatter-gather comparison.
	SkipShards bool
	// ShardCounts are the tile counts swept by the sharded comparison.
	// Empty means DefaultShardCounts (2, 4, 9).
	ShardCounts []int
	// Remote additionally runs the cross-process scatter-gather
	// comparison: every shard served over real loopback HTTP, queried
	// through the fault-tolerant remote client. Opt-in — each query
	// crosses the wire per shard, so the sweep is markedly slower than
	// the in-process matrix.
	Remote bool
	// Routes additionally runs the k most interesting routes
	// differential: the pruned best-first search against exhaustive
	// simple-path enumeration (DiffTraj).
	Routes bool
	// Traj additionally runs the trajectory-SOI differential: the grid
	// map-matcher and corridor ranking against full scans (DiffTraj).
	Traj bool
}

// DefaultCellSizes are the index cell sizes swept when Options leaves
// them empty: one near the default query ε and one deliberately
// mismatched, since the paper leaves the cell size arbitrary.
var DefaultCellSizes = []float64{0.0005, 0.0013}

func (o Options) cellSizes() []float64 {
	if len(o.CellSizes) > 0 {
		return o.CellSizes
	}
	return DefaultCellSizes
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return 4
}

// Equal compares two ranked result lists for exact agreement: same
// length, and at every rank the same street, name, best segment and
// bit-identical interest and mass. It returns "" on agreement and a
// description of the first mismatch otherwise.
func Equal(got, want []core.StreetResult) string {
	if len(got) != len(want) {
		return fmt.Sprintf("length %d, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		switch {
		case g.Street != w.Street:
			return fmt.Sprintf("rank %d: street %d (%q, interest %v), want street %d (%q, interest %v)",
				i+1, g.Street, g.Name, g.Interest, w.Street, w.Name, w.Interest)
		case g.Name != w.Name:
			return fmt.Sprintf("rank %d: name %q, want %q", i+1, g.Name, w.Name)
		case math.Float64bits(g.Interest) != math.Float64bits(w.Interest):
			return fmt.Sprintf("rank %d (street %d): interest %v, want %v", i+1, g.Street, g.Interest, w.Interest)
		case g.BestSegment != w.BestSegment:
			return fmt.Sprintf("rank %d (street %d): best segment %d, want %d", i+1, g.Street, g.BestSegment, w.BestSegment)
		case math.Float64bits(g.Mass) != math.Float64bits(w.Mass):
			return fmt.Sprintf("rank %d (street %d): mass %v, want %v", i+1, g.Street, g.Mass, w.Mass)
		}
	}
	return ""
}

// EqualRanked compares two rankings under a relative interest tolerance:
// the same streets must appear, each with interest within relTol, and the
// order may differ only between entries whose interests are within relTol
// of each other. The rigid-motion metamorphic checks use it because
// rotating a world perturbs segment lengths in the last float bits.
func EqualRanked(got, want []core.StreetResult, relTol float64) string {
	if len(got) != len(want) {
		return fmt.Sprintf("length %d, want %d", len(got), len(want))
	}
	close := func(a, b float64) bool {
		scale := math.Max(math.Abs(a), math.Abs(b))
		if scale == 0 {
			return true
		}
		return math.Abs(a-b) <= relTol*scale
	}
	byStreet := make(map[network.StreetID]float64, len(want))
	for _, r := range want {
		byStreet[r.Street] = r.Interest
	}
	for i, g := range got {
		w, ok := byStreet[g.Street]
		if !ok {
			return fmt.Sprintf("rank %d: street %d (%q) absent from reference ranking", i+1, g.Street, g.Name)
		}
		if !close(g.Interest, w) {
			return fmt.Sprintf("rank %d (street %d): interest %v, reference %v", i+1, g.Street, g.Interest, w)
		}
	}
	// Order check: strictly separated interests must keep their relative
	// order; only tolerance-close entries may permute.
	for i := range got {
		for j := i + 1; j < len(got); j++ {
			if close(got[i].Interest, got[j].Interest) {
				continue
			}
			if got[i].Interest < got[j].Interest {
				return fmt.Sprintf("ranks %d/%d: streets %d and %d out of interest order (%v < %v)",
					i+1, j+1, got[i].Street, got[j].Street, got[i].Interest, got[j].Interest)
			}
		}
	}
	return ""
}

// DiffWorld runs the differential matrix over one world: for every query,
// the brute-force oracle answer is compared against the exact baseline
// BL, Algorithm 1 under both access strategies, the index after a
// snapshot serialize/reload round trip, the spatially
// sharded scatter-gather coordinator (2/4/9 tiles, halo sized to the
// largest query ε), and the parallel batch engine — each under every
// swept index cell size. The world build error,
// if any, is returned as-is; implementations disagreeing with the oracle
// are returned as divergences.
func DiffWorld(w World, queries []core.Query, opt Options) ([]Divergence, error) {
	net, pois, photos, _, err := w.Build()
	if err != nil {
		return nil, err
	}
	// Oracle answers are index-free: compute them once.
	want := make([][]core.StreetResult, len(queries))
	for i, q := range queries {
		want[i], err = TopK(net, pois, q)
		if err != nil {
			return nil, fmt.Errorf("oracle: query %d invalid: %w", i, err)
		}
	}

	var divs []Divergence
	for _, cell := range opt.cellSizes() {
		ix, err := core.NewIndex(net, pois, core.IndexConfig{CellSize: cell})
		if err != nil {
			return nil, fmt.Errorf("oracle: building index (cell %g): %w", cell, err)
		}
		report := func(impl string, q core.Query, detail string) {
			divs = append(divs, Divergence{Impl: impl, CellSize: cell, Query: q, Detail: detail})
		}

		// Every static executor serves with Drain and the live path with
		// CostAware: the choice must be performance only.
		for i, q := range queries {
			if res, _, err := ix.Baseline(q); err != nil {
				report("baseline", q, "error: "+err.Error())
			} else if d := Equal(res, want[i]); d != "" {
				report("baseline", q, d)
			}
			for _, strat := range []core.Strategy{core.CostAware, core.Drain} {
				impl := "soi/" + strat.String()
				if res, _, err := ix.SOIWithStrategy(q, strat); err != nil {
					report(impl, q, "error: "+err.Error())
				} else if d := Equal(res, want[i]); d != "" {
					report(impl, q, d)
				}
			}
		}

		// A serialize/reload round trip through the snapshot container
		// must be lossless down to the last float bit.
		blob, err := snapshot.Encode(&snapshot.Snapshot{Net: net, POIs: pois, Photos: photos, Slab: ix.Slab()})
		if err != nil {
			return nil, fmt.Errorf("oracle: encoding snapshot (cell %g): %w", cell, err)
		}
		snap, err := snapshot.Decode(blob)
		if err != nil {
			return nil, fmt.Errorf("oracle: decoding snapshot (cell %g): %w", cell, err)
		}
		reloaded, err := core.NewIndexFromSlab(snap.Net, snap.POIs, snap.Slab)
		if err != nil {
			return nil, fmt.Errorf("oracle: rebuilding index from snapshot (cell %g): %w", cell, err)
		}
		for i, q := range queries {
			if res, _, err := reloaded.SOI(q); err != nil {
				report("snapshot/reload", q, "error: "+err.Error())
			} else if d := EqualRanked(res, want[i], 0); d != "" {
				// relTol 0 makes EqualRanked exact: reloading may not move
				// a single interest bit or swap any strictly ordered pair.
				report("snapshot/reload", q, d)
			} else if d := Equal(res, want[i]); d != "" {
				report("snapshot/reload", q, d)
			}
		}

		// The sharded scatter-gather coordinator must match the oracle at
		// every tile count, with the halo sized to the largest ε.
		if !opt.SkipShards {
			if err := diffShards(net, pois, queries, want, cell, opt, report); err != nil {
				return nil, err
			}
		}

		// Opt-in: the same comparison across process boundaries — every
		// shard behind a real HTTP server, gathered by the remote client.
		if opt.Remote {
			if err := diffRemote(net, pois, queries, want, cell, opt, report); err != nil {
				return nil, err
			}
		}

		if !opt.SkipEngine {
			exec := engine.New(ix, engine.Config{Workers: opt.workers()})
			// Append duplicates so in-flight dedup and the LRU result cache
			// both participate; the second batch is answered mostly cached.
			batch := append(append([]core.Query(nil), queries...), queries...)
			for round, label := range []string{"engine/batch", "engine/batch-cached"} {
				results := exec.Batch(batch)
				for i, r := range results {
					q := batch[i]
					ref := want[i%len(queries)]
					if r.Err != nil {
						report(label, q, "error: "+r.Err.Error())
						continue
					}
					if d := Equal(r.Streets, ref); d != "" {
						report(label, q, d)
					}
				}
				_ = round
			}
		}
	}
	return divs, nil
}

func specWeight(p POISpec) float64 {
	if p.Weight == 0 {
		return 1
	}
	return p.Weight
}

// DiffSummary cross-checks the diversification layer over one street-like
// photo pool: the grid-pruned ST_Rel+Div construction must equal the
// exact greedy baseline photo for photo, the exhaustive optimum must
// match the oracle's definition-level enumeration, and the greedy
// objective can never exceed the exhaustive one. Pools larger than
// maxExhaustive photos skip the enumeration checks.
func DiffSummary(s Summary, p diversify.Params, maxExhaustive int) ([]Divergence, error) {
	ctx, err := diversify.NewContext(s.Photos, s.Freq, s.MaxD, p.Rho)
	if err != nil {
		return nil, err
	}
	var divs []Divergence
	report := func(impl, detail string) {
		divs = append(divs, Divergence{Impl: impl, Detail: detail})
	}

	greedy, err := ctx.STRelDiv(p)
	if err != nil {
		return nil, err
	}
	exact, err := ctx.Baseline(p)
	if err != nil {
		return nil, err
	}
	if !equalInts(greedy.Selected, exact.Selected) {
		report("diversify/strel-div", fmt.Sprintf("grid-pruned selection %v, exact greedy %v", greedy.Selected, exact.Selected))
	}
	// The context's objective and the oracle's definition-level objective
	// must agree on the same selection.
	const tol = 1e-12
	if o := s.Objective(greedy.Selected, p.Lambda, p.W, p.Rho); math.Abs(o-greedy.Objective) > tol {
		report("diversify/objective", fmt.Sprintf("context F=%v, oracle F=%v for selection %v", greedy.Objective, o, greedy.Selected))
	}

	if len(s.Photos) <= maxExhaustive {
		exh, err := ctx.Exhaustive(p)
		if err != nil {
			return nil, err
		}
		_, bestVal := s.ExhaustiveBest(p.K, p.Lambda, p.W, p.Rho)
		if math.Abs(exh.Objective-bestVal) > tol {
			report("diversify/exhaustive", fmt.Sprintf("optimum F=%v, oracle optimum F=%v", exh.Objective, bestVal))
		}
		if greedy.Objective > bestVal+tol {
			report("diversify/greedy-bound", fmt.Sprintf("greedy F=%v exceeds exhaustive optimum F=%v", greedy.Objective, bestVal))
		}
	}
	return divs, nil
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
