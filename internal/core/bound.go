package core

import (
	"fmt"

	"repro/internal/geo"
	"repro/internal/network"
	"repro/internal/poi"
	"repro/internal/vocab"
)

// deriveBounds resolves the grid extent for an index build: an explicit
// IndexConfig.Bounds wins (spatial shards pass the global extent so the
// cell lattice is shared), otherwise the union of the network bounds and
// every POI location is used so no object is clamped away.
func deriveBounds(net *network.Network, pois []poi.POI, cfg IndexConfig) (geo.Rect, error) {
	if cfg.Bounds != (geo.Rect{}) {
		if !cfg.Bounds.IsValid() {
			return geo.Rect{}, fmt.Errorf("core: invalid index bounds %v", cfg.Bounds)
		}
		return cfg.Bounds, nil
	}
	bounds := net.Bounds()
	for i := range pois {
		p := pois[i].Loc
		r := geo.Rect{MinX: p.X, MinY: p.Y, MaxX: p.X, MaxY: p.Y}
		if i == 0 && net.NumVertices() == 0 {
			bounds = r
		} else {
			bounds = bounds.Union(r)
		}
	}
	if !bounds.IsValid() {
		return geo.Rect{}, fmt.Errorf("core: cannot derive bounds from empty network and corpus")
	}
	return bounds, nil
}

// UnseenBound returns the initial value of Algorithm 1's unseen upper
// bound for this index: UB = top(SL1)·top(SL2) / (2ε·top(SL3) + πε²)
// before any source-list pop. Because the source lists are untouched,
// the value bounds the interest of EVERY segment in the index, not just
// unseen ones: mass(ℓ) ≤ top(SL1)·|Cε(ℓ)| ≤ top(SL1)·top(SL2) and
// len(ℓ) ≥ top(SL3). The scatter-gather coordinator (internal/shard)
// uses it as each shard's static UB: once the merged global LBk strictly
// dominates a shard's UB, no street of that shard can reach the top-k
// and the shard is pruned without being evaluated.
//
// An exhausted list makes the bound zero: the index holds no
// query-relevant mass (SL1 empty) or no segments at all (SL2/SL3
// empty). The bound is deterministic — a pure function of ⟨index, Ψ, ε⟩.
//
// Only the heads of the three lists are needed, so no list is built: the
// cost is O(query-relevant cells) with no sort. The heads come from the
// slab, the memoized ε-plan and a pooled scratch run — zero heap
// allocations once the pool has seen the world: top(SL1) from a pooled
// run's accumulators (slabRun.topSL1), top(SL2) and top(SL3) from the
// memoized ε-plan and the length order.
func (ix *Index) UnseenBound(q Query) (float64, error) {
	if err := q.Validate(); err != nil {
		return 0, err
	}
	if len(ix.segsByLen) == 0 {
		return 0, nil
	}
	r := getRun(ix)
	r.queryBuf = ix.resolveInto(r.queryBuf[:0], q.Keywords)
	r.query = r.queryBuf
	top1 := r.topSL1()
	r.query = nil
	putRun(r)
	if top1 == 0 {
		return 0, nil
	}
	plan := ix.plan(q.Epsilon)
	sid2 := plan.sl2[0]
	top2 := float64(plan.segCellOff[sid2+1] - plan.segCellOff[sid2])
	top3 := ix.segLen[ix.segsByLen[0]]
	return Interest(top1*top2, top3, q.Epsilon), nil
}

// resolveInto is resolve into a caller-owned buffer: the known keywords'
// ids appended to buf as a sorted, duplicate-free set. The insertion sort
// is quadratic in |Ψ|, which is a handful of keywords.
func (ix *Index) resolveInto(buf vocab.Set, keywords []string) vocab.Set {
	dict := ix.pois.Dict()
	for _, kw := range keywords {
		id, ok := dict.Lookup(kw)
		if !ok {
			continue
		}
		i := len(buf)
		for i > 0 && buf[i-1] > id {
			i--
		}
		if i > 0 && buf[i-1] == id {
			continue
		}
		buf = append(buf, 0)
		copy(buf[i+1:], buf[i:])
		buf[i] = id
	}
	return buf
}
