package core

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/geo"
	"repro/internal/grid"
	"repro/internal/network"
	"repro/internal/poi"
	"repro/internal/vocab"
)

// slabPlan is the ε-dependent part of the index: the cell↔segment maps
// and SL2, in CSR form over cell ordinals. Plans are built once per ε and
// shared read-only by every run.
type slabPlan struct {
	// segCellOff[sid] .. segCellOff[sid+1] delimits segment sid's ε-near
	// cell ordinals in segCell — the canonical Cε(ℓ), ascending, as
	// Slab.CellsNearSegmentInto produces it.
	segCellOff []uint32
	segCell    []int32
	// cellSegOff[ord] .. cellSegOff[ord+1] delimits cell ord's ε-near
	// segments in cellSeg, ascending by segment id.
	cellSegOff []uint32
	cellSeg    []uint32
	// sl2 lists segment ids decreasingly by |Cε(ℓ)|, ties ascending by id.
	sl2 []network.SegmentID
}

// BuildSlab builds the slab every index over the corpus is opened from:
// grid.BuildSlabOf over the POIs' records as they stand, on the bounds
// deriveBounds resolves.
func BuildSlab(net *network.Network, pois *poi.Corpus, cfg IndexConfig) (*grid.Slab, error) {
	if cfg.CellSize <= 0 {
		return nil, fmt.Errorf("core: non-positive cell size %v", cfg.CellSize)
	}
	all := pois.All()
	bounds, err := deriveBounds(net, all, cfg)
	if err != nil {
		return nil, err
	}
	return grid.BuildSlabOf(grid.Config{CellSize: cfg.CellSize, Bounds: bounds}, POIObjects(all))
}

// POIObjects reads POIs as grid objects, in place.
type POIObjects []poi.POI

func (p POIObjects) Len() int { return len(p) }

func (p POIObjects) Loc(i int) geo.Point  { return p[i].Loc }
func (p POIObjects) Keys(i int) vocab.Set { return p[i].Keywords }
func (p POIObjects) Weight(i int) float64 { return p[i].Weight }

// plan returns the ε plan, building and memoizing it on first use.
// Concurrent callers may race to build a fresh ε; each computes an
// identical value and the last store wins.
func (ix *Index) plan(eps float64) *slabPlan {
	ix.mu.RLock()
	p, ok := ix.plans[eps]
	ix.mu.RUnlock()
	if ok {
		return p
	}
	p = ix.buildPlan(eps, runtime.GOMAXPROCS(0))
	ix.mu.Lock()
	ix.plans[eps] = p
	ix.mu.Unlock()
	return p
}

// buildPlan builds the ε plan. Cε(ℓ) is computed over workers contiguous
// segment ranges concurrently and the ranges are joined in segment-id
// order, so the plan does not depend on the worker count; the inversion
// and the SL2 sort then run on the caller's goroutine. plan uses every
// core at any size: a segment tests a whole span of cells, so on a
// 2-vCPU Xeon even a 251-segment world builds its three sweep plans
// faster on two workers than on one (1.6 against 2.1 ms).
func (ix *Index) buildPlan(eps float64, workers int) *slabPlan {
	numSegs := len(ix.segLen)
	numCells := ix.slab.NumCells()
	p := &slabPlan{segCellOff: make([]uint32, numSegs+1)}
	workers = max(1, min(workers, numSegs))
	parts := make([][]int32, workers)
	build := func(w int) {
		parts[w] = ix.nearCells(eps, numSegs*w/workers, numSegs*(w+1)/workers, p.segCellOff)
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			build(w)
		}()
	}
	build(0)
	wg.Wait()
	for sid := 0; sid < numSegs; sid++ {
		p.segCellOff[sid+1] += p.segCellOff[sid]
	}
	// One range is the array itself; several are joined in order.
	p.segCell = parts[0]
	if workers > 1 {
		p.segCell = slices.Concat(parts...)
	}
	// Invert to cell→segments: counting pass, then fill in ascending sid
	// order so each cell's list is sorted by segment id.
	p.cellSegOff = make([]uint32, numCells+1)
	for _, ord := range p.segCell {
		p.cellSegOff[ord+1]++
	}
	for i := 1; i <= numCells; i++ {
		p.cellSegOff[i] += p.cellSegOff[i-1]
	}
	p.cellSeg = make([]uint32, len(p.segCell))
	next := make([]uint32, numCells)
	copy(next, p.cellSegOff[:numCells])
	for sid := 0; sid < numSegs; sid++ {
		for _, ord := range p.segCell[p.segCellOff[sid]:p.segCellOff[sid+1]] {
			p.cellSeg[next[ord]] = uint32(sid)
			next[ord]++
		}
	}
	// SL2: segments by decreasing ε-near cell count, ties by id — a
	// counting sort over the counts, filled in ascending id.
	var most uint32
	for sid := 0; sid < numSegs; sid++ {
		most = max(most, p.segCellOff[sid+1]-p.segCellOff[sid])
	}
	at := make([]uint32, most+2)
	for sid := 0; sid < numSegs; sid++ {
		at[most-(p.segCellOff[sid+1]-p.segCellOff[sid])+1]++
	}
	for i := 1; i < len(at); i++ {
		at[i] += at[i-1]
	}
	p.sl2 = make([]network.SegmentID, numSegs)
	for sid := 0; sid < numSegs; sid++ {
		c := most - (p.segCellOff[sid+1] - p.segCellOff[sid])
		p.sl2[at[c]] = network.SegmentID(sid)
		at[c]++
	}
	return p
}

// nearCells appends Cε(ℓ) of segments lo..hi-1, in segment-id order, to
// a fresh slice and returns it, leaving each segment's cell count in
// counts[sid+1].
func (ix *Index) nearCells(eps float64, lo, hi int, counts []uint32) []int32 {
	var cells []int32
	for sid := lo; sid < hi; sid++ {
		seg := geo.Segment{
			A: geo.Point{X: ix.segAX[sid], Y: ix.segAY[sid]},
			B: geo.Point{X: ix.segBX[sid], Y: ix.segBY[sid]},
		}
		n := len(cells)
		cells = ix.slab.CellsNearSegmentInto(seg, eps, cells)
		counts[sid+1] = uint32(len(cells) - n)
	}
	return cells
}

// CellSegments returns the segments within eps of cell ord (the
// cell-to-segment map Lε of one cell), ascending by segment id, from the
// memoized ε-plan. Callers must not modify the result.
func (ix *Index) CellSegments(eps float64, ord int) []network.SegmentID {
	p := ix.plan(eps)
	return p.cellSeg[p.cellSegOff[ord]:p.cellSegOff[ord+1]]
}

// resolve validates the query and interns its keywords against the
// corpus dictionary; unknown keywords contribute no POIs and are dropped.
func (ix *Index) resolve(q Query) (vocab.Set, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	set, _ := ix.pois.Dict().LookupAll(q.Keywords)
	return set, nil
}

// soiResolved is the steady-state entry point: it evaluates a
// pre-resolved query under the given access schedule, appending the k
// results into out's capacity. With a warmed ε it performs zero heap
// allocations once the process-wide scratch pool (runPool) has seen the
// world size. k must be positive and eps positive and finite; query must
// come from resolve (sorted, deduplicated, known keywords only).
func (ix *Index) soiResolved(ctx context.Context, query vocab.Set, k int, eps float64, strat Strategy, out []StreetResult) ([]StreetResult, Stats, error) {
	if err := ctx.Err(); err != nil {
		return nil, Stats{}, err
	}
	if k <= 0 || !validEpsilon(eps) {
		return nil, Stats{}, fmt.Errorf("core: k %d or epsilon %v is not positive and finite", k, eps)
	}
	r := getRun(ix)
	defer putRun(r)
	r.ctx = ctx
	r.query = query
	r.k = k
	r.eps = eps
	r.strat = strat

	start := time.Now()
	r.begin(ix.plan(eps))
	r.stats.BuildListsTime = time.Since(start)

	start = time.Now()
	err := r.filter()
	r.stats.FilterTime = time.Since(start)
	if err != nil {
		r.release()
		return nil, r.stats, err
	}

	start = time.Now()
	out, err = r.refine(out)
	r.stats.RefineTime = time.Since(start)
	stats := r.stats
	r.release()
	if err != nil {
		return nil, stats, err
	}
	return out, stats, nil
}

// SegmentMass computes the exact relevant mass of a segment (Def. 1) by
// visiting every ε-near cell: the segment's canonical Cε(ℓ) range of the
// memoized ε-plan, each cell's relevant POIs streamed from the
// slab's postings in ascending POI id (one keyword's list as it stands,
// several merged with duplicates counted once), each cell's contribution
// summed on its own before it joins the total. It allocates nothing for
// up to eight keywords.
func (ix *Index) SegmentMass(sid network.SegmentID, query vocab.Set, eps float64) float64 {
	if len(query) == 0 {
		return 0
	}
	plan := ix.plan(eps)
	s := ix.slab
	seg := geo.Segment{
		A: geo.Point{X: ix.segAX[sid], Y: ix.segAY[sid]},
		B: geo.Point{X: ix.segBX[sid], Y: ix.segBY[sid]},
	}
	epsSq := eps * eps
	var loBuf, hiBuf [8]uint32
	var mass float64
	for _, ord := range plan.segCell[plan.segCellOff[sid]:plan.segCellOff[sid+1]] {
		kwLo, kwHi := s.KwOff[ord], s.KwOff[ord+1]
		lo, hi := loBuf[:0], hiBuf[:0]
		for _, kw := range query {
			if j := findKw(s.CellKw[kwLo:kwHi], kw); j >= 0 {
				pj := kwLo + uint32(j)
				if s.PostOff[pj] < s.PostOff[pj+1] {
					lo, hi = append(lo, s.PostOff[pj]), append(hi, s.PostOff[pj+1])
				}
			}
		}
		var cell float64
		within := func(m uint32) {
			if seg.DistToPointSq(geo.Point{X: s.ObjX[m], Y: s.ObjY[m]}) <= epsSq {
				cell += s.ObjW[m]
			}
		}
		if len(lo) == 1 {
			for _, m := range s.Postings[lo[0]:hi[0]] {
				within(m)
			}
		}
		const sentinel = ^uint32(0)
		for len(lo) > 1 {
			minID := sentinel
			for i := range lo {
				if lo[i] < hi[i] && s.Postings[lo[i]] < minID {
					minID = s.Postings[lo[i]]
				}
			}
			if minID == sentinel {
				break
			}
			for i := range lo {
				if lo[i] < hi[i] && s.Postings[lo[i]] == minID {
					lo[i]++
				}
			}
			within(minID)
		}
		mass += cell
	}
	return mass
}
