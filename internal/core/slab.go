package core

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/geo"
	"repro/internal/grid"
	"repro/internal/network"
	"repro/internal/poi"
	"repro/internal/vocab"
)

// SlabIndex is the evaluator of Algorithm 1: it answers k-SOI queries over
// the flattened struct-of-arrays grid layout (grid.Slab). Source lists,
// postings and the ε-augmented cell↔segment maps are offset ranges into
// contiguous arrays, the per-query state lives in a pooled scratch arena
// addressed by dense ordinals, and the steady-state query path performs
// zero heap allocations. Every float is folded in a fixed order (POIs by
// ascending id within a cell, cells in canonical Cε(ℓ) order), so an
// answer is a pure function of the query, whichever access schedule or
// MassCache state the run had.
//
// A SlabIndex is immutable and safe for concurrent use; each evaluation
// checks out a private scratch run from an internal pool.
type SlabIndex struct {
	net  *network.Network
	pois *poi.Corpus
	slab *grid.Slab

	// Flattened network: segment endpoint coordinates, cached lengths and
	// street ids, indexed by segment id.
	segAX, segAY []float64
	segBX, segBY []float64
	segLen       []float64
	segStreet    []uint32

	// segsByLen is SL3, the query-independent source list: segment ids
	// sorted increasingly by length, ties by id.
	segsByLen []network.SegmentID

	// mu guards the per-ε plan memos.
	mu    sync.RWMutex
	plans map[float64]*slabPlan

	pool sync.Pool // *slabRun
}

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

// NewSlabIndex builds a slab index over a network and POI corpus.
func NewSlabIndex(net *network.Network, pois *poi.Corpus, cfg IndexConfig) (*SlabIndex, error) {
	slab, err := BuildSlab(net, pois, cfg)
	if err != nil {
		return nil, err
	}
	return NewSlabIndexFromSlab(net, pois, slab)
}

// BuildSlab builds the slab every index over the corpus is opened from:
// the POIs' locations, keyword sets and weights handed to grid.BuildSlab
// over the bounds deriveBounds resolves.
func BuildSlab(net *network.Network, pois *poi.Corpus, cfg IndexConfig) (*grid.Slab, error) {
	if cfg.CellSize <= 0 {
		return nil, fmt.Errorf("core: non-positive cell size %v", cfg.CellSize)
	}
	all := pois.All()
	pts := make([]geo.Point, len(all))
	keys := make([]vocab.Set, len(all))
	weights := make([]float64, len(all))
	for i := range all {
		pts[i] = all[i].Loc
		keys[i] = all[i].Keywords
		weights[i] = all[i].Weight
	}
	bounds, err := deriveBounds(net, pts, cfg)
	if err != nil {
		return nil, err
	}
	return grid.BuildSlab(grid.Config{CellSize: cfg.CellSize, Bounds: bounds}, pts, keys, weights)
}

// NewSlabIndexFromSlab wraps a prebuilt (for example, snapshot-loaded)
// slab. The slab must index exactly the corpus's POIs.
func NewSlabIndexFromSlab(net *network.Network, pois *poi.Corpus, slab *grid.Slab) (*SlabIndex, error) {
	if slab.NumObjects != pois.Len() {
		return nil, fmt.Errorf("core: slab indexes %d objects but corpus has %d POIs", slab.NumObjects, pois.Len())
	}
	segs := net.Segments()
	six := &SlabIndex{
		net:       net,
		pois:      pois,
		slab:      slab,
		segAX:     make([]float64, len(segs)),
		segAY:     make([]float64, len(segs)),
		segBX:     make([]float64, len(segs)),
		segBY:     make([]float64, len(segs)),
		segLen:    make([]float64, len(segs)),
		segStreet: make([]uint32, len(segs)),
		plans:     make(map[float64]*slabPlan),
	}
	for i := range segs {
		s := &segs[i]
		six.segAX[i], six.segAY[i] = s.Geom.A.X, s.Geom.A.Y
		six.segBX[i], six.segBY[i] = s.Geom.B.X, s.Geom.B.Y
		six.segLen[i] = s.Length()
		six.segStreet[i] = uint32(s.Street)
	}
	six.segsByLen = make([]network.SegmentID, len(segs))
	for i := range segs {
		six.segsByLen[i] = segs[i].ID
	}
	slices.SortFunc(six.segsByLen, func(a, b network.SegmentID) int {
		if six.segLen[a] != six.segLen[b] {
			if six.segLen[a] < six.segLen[b] {
				return -1
			}
			return 1
		}
		return cmp.Compare(a, b)
	})
	six.pool.New = func() interface{} { return &slabRun{six: six} }
	return six, nil
}

// Network returns the indexed road network.
func (six *SlabIndex) Network() *network.Network { return six.net }

// POIs returns the indexed POI corpus.
func (six *SlabIndex) POIs() *poi.Corpus { return six.pois }

// Slab returns the underlying flattened grid.
func (six *SlabIndex) Slab() *grid.Slab { return six.slab }

// Warm precomputes the ε-dependent plan so that subsequent query timings
// measure only query work.
func (six *SlabIndex) Warm(eps float64) { six.plan(eps) }

// plan returns the ε plan, building and memoizing it on first use.
// Concurrent callers may race to build a fresh ε; each computes an
// identical value and the last store wins.
func (six *SlabIndex) plan(eps float64) *slabPlan {
	six.mu.RLock()
	p, ok := six.plans[eps]
	six.mu.RUnlock()
	if ok {
		return p
	}
	numSegs := len(six.segLen)
	numCells := six.slab.NumCells()
	p = &slabPlan{segCellOff: make([]uint32, numSegs+1)}
	var buf []int32
	for sid := 0; sid < numSegs; sid++ {
		seg := geo.Segment{
			A: geo.Point{X: six.segAX[sid], Y: six.segAY[sid]},
			B: geo.Point{X: six.segBX[sid], Y: six.segBY[sid]},
		}
		buf = six.slab.CellsNearSegmentInto(seg, eps, buf[:0])
		p.segCell = append(p.segCell, buf...)
		p.segCellOff[sid+1] = uint32(len(p.segCell))
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
	// SL2: segments by decreasing ε-near cell count, ties by id.
	p.sl2 = make([]network.SegmentID, numSegs)
	for i := range p.sl2 {
		p.sl2[i] = network.SegmentID(i)
	}
	counts := func(sid network.SegmentID) uint32 {
		return p.segCellOff[sid+1] - p.segCellOff[sid]
	}
	sort.Slice(p.sl2, func(i, j int) bool {
		a, b := p.sl2[i], p.sl2[j]
		if counts(a) != counts(b) {
			return counts(a) > counts(b)
		}
		return a < b
	})
	six.mu.Lock()
	six.plans[eps] = p
	six.mu.Unlock()
	return p
}

// CellSegments returns the segments within eps of cell ord (the
// cell-to-segment map Lε of one cell), ascending by segment id, from the
// memoized ε-plan. Callers must not modify the result.
func (six *SlabIndex) CellSegments(eps float64, ord int) []network.SegmentID {
	p := six.plan(eps)
	return p.cellSeg[p.cellSegOff[ord]:p.cellSegOff[ord+1]]
}

// Resolve validates the query and interns its keywords against the
// corpus dictionary; unknown keywords contribute no POIs and are dropped.
// Use with SOIResolved to evaluate repeated queries allocation-free.
func (six *SlabIndex) Resolve(q Query) (vocab.Set, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	set, _ := six.pois.Dict().LookupAll(q.Keywords)
	return set, nil
}

// SOI evaluates a k-SOI query with the cost-aware schedule.
func (six *SlabIndex) SOI(q Query) ([]StreetResult, Stats, error) {
	return six.SOIContext(context.Background(), q, nil)
}

// SOIContext evaluates a k-SOI query under a context with an optional
// shared MassCache.
func (six *SlabIndex) SOIContext(ctx context.Context, q Query, mc *MassCache) ([]StreetResult, Stats, error) {
	return six.SOIInto(ctx, q, mc, nil)
}

// SOIInto is SOIContext appending results into out's capacity, for
// callers that reuse a result buffer across queries.
func (six *SlabIndex) SOIInto(ctx context.Context, q Query, mc *MassCache, out []StreetResult) ([]StreetResult, Stats, error) {
	if err := ctx.Err(); err != nil {
		return nil, Stats{}, err
	}
	query, err := six.Resolve(q)
	if err != nil {
		return nil, Stats{}, err
	}
	return six.SOIResolved(ctx, query, q.K, q.Epsilon, CostAware, mc, out)
}

// SOIResolved is the steady-state entry point: it evaluates a
// pre-resolved query under the given access schedule, appending the k
// results into out's capacity. With a nil MassCache and a warmed ε it
// performs zero heap allocations once the internal scratch pool has seen
// the world size. k must be positive and eps positive and finite; query
// must come from Resolve (sorted, deduplicated, known keywords only).
func (six *SlabIndex) SOIResolved(ctx context.Context, query vocab.Set, k int, eps float64, strat Strategy, mc *MassCache, out []StreetResult) ([]StreetResult, Stats, error) {
	if err := ctx.Err(); err != nil {
		return nil, Stats{}, err
	}
	if k <= 0 || !validEpsilon(eps) {
		return nil, Stats{}, fmt.Errorf("core: k %d or epsilon %v is not positive and finite", k, eps)
	}
	r := six.pool.Get().(*slabRun)
	defer six.pool.Put(r)
	r.ctx = ctx
	r.query = query
	r.k = k
	r.eps = eps
	r.strat = strat
	r.mc = mc
	if mc != nil {
		r.psi = mc.psiID(query)
	}

	start := time.Now()
	r.begin(six.plan(eps))
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

// segmentMass is Index.SegmentMass: the segment's canonical Cε(ℓ) range
// of the memoized ε-plan, each cell's relevant POIs streamed from the
// slab's postings in ascending POI id (one keyword's list as it stands,
// several merged with duplicates counted once), each cell's contribution
// summed on its own before it joins the total. It allocates nothing for
// up to eight keywords.
func (six *SlabIndex) segmentMass(sid network.SegmentID, query vocab.Set, eps float64) float64 {
	if len(query) == 0 {
		return 0
	}
	plan := six.plan(eps)
	s := six.slab
	seg := geo.Segment{
		A: geo.Point{X: six.segAX[sid], Y: six.segAY[sid]},
		B: geo.Point{X: six.segBX[sid], Y: six.segBY[sid]},
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
