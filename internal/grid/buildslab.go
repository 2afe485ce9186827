package grid

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sort"
	"sync"

	"repro/internal/geo"
	"repro/internal/vocab"
)

// parallelBuildThreshold is the object count below which BuildSlab's
// parallel passes are not worth the goroutines.
const parallelBuildThreshold = 4096

// Objects is what BuildSlabOf indexes: Len objects with dense ids, object
// i having location Loc(i), keyword set Keys(i) (nil: none) and weight
// Weight(i). Each is read more than once and must answer the same each
// time; callers adapt the records they already hold rather than copying
// them into parallel slices. The build reads an object's keywords apart
// from its location, so an adapter over parallel slices touches only the
// slice each pass needs.
type Objects interface {
	Len() int
	Loc(i int) geo.Point
	Keys(i int) vocab.Set
	Weight(i int) float64
}

// BuildSlab builds the slab over objects given by parallel slices of
// locations, keyword sets (nil: no keywords) and weights (nil: weight 1
// everywhere); it is BuildSlabOf over the slices.
func BuildSlab(cfg Config, locs []geo.Point, keys []vocab.Set, weights []float64) (*Slab, error) {
	objs, err := newSliceObjects(locs, keys, weights)
	if err != nil {
		return nil, err
	}
	return BuildSlabOf(cfg, objs)
}

// BuildSlabOf builds the slab over objs. Objects outside cfg.Bounds are
// clamped into the border cells, so none is lost. Object ids are bucketed
// by cell with a stable radix sort, which yields CellIDs, MemberOff and
// Members at once; the per-cell keyword CSR and the vocab-major inverted
// index are then filled over disjoint cell and keyword ranges in
// parallel. Every weight is summed in ascending object id within its
// cell, whichever worker does it, so the result does not depend on the
// worker count.
func BuildSlabOf(cfg Config, objs Objects) (*Slab, error) {
	workers := 1
	if objs.Len() >= parallelBuildThreshold {
		workers = runtime.GOMAXPROCS(0)
	}
	return buildSlab(cfg, objs, workers)
}

// buildSlab is BuildSlabOf with an explicit worker count, which tests pin
// to check that the result does not depend on it.
func buildSlab(cfg Config, objs Objects, workers int) (*Slab, error) {
	lat, err := resolveLattice(cfg, objs)
	if err != nil {
		return nil, err
	}
	workers = max(workers, 1)
	n := objs.Len()
	s := &Slab{
		Bounds: lat.Bounds, CellSize: lat.CellSize, NX: lat.NX, NY: lat.NY, NumObjects: n,
		ObjX: make([]float64, n), ObjY: make([]float64, n), ObjW: make([]float64, n),
	}
	cids := make([]CellID, n)
	for i := range n {
		p := objs.Loc(i)
		s.ObjX[i], s.ObjY[i], s.ObjW[i] = p.X, p.Y, objs.Weight(i)
		cids[i] = lat.CellIndex(p)
	}

	// Members is the object ids ordered by (cell id, object id); each run
	// of one cell id is a cell.
	s.Members = sortByCell(cids)
	for i, m := range s.Members {
		if i == 0 || cids[m] != cids[s.Members[i-1]] {
			s.CellIDs = append(s.CellIDs, int32(cids[m]))
			s.MemberOff = append(s.MemberOff, uint32(i))
		}
	}
	s.MemberOff = append(s.MemberOff, uint32(n))
	numCells := len(s.CellIDs)
	s.PsiMin = make([]int32, numCells)
	s.PsiMax = make([]int32, numCells)
	s.CellWeight = make([]float64, numCells)
	s.KwOff = make([]uint32, numCells+1)

	// A cell's postings take exactly the summed keyword-set sizes of its
	// members, so every cell's range in Postings is known up front and the
	// workers write it in place. The sizes are read in id order into the
	// cell-id array, dead by now, so the walk by cell reads 4 bytes an
	// object rather than calling Keys out of order.
	keyCount := cids
	for i := range keyCount {
		keyCount[i] = CellID(len(objs.Keys(i)))
	}
	postBase := make([]uint32, numCells+1)
	for ord := 0; ord < numCells; ord++ {
		total := postBase[ord]
		for _, m := range s.Members[s.MemberOff[ord]:s.MemberOff[ord+1]] {
			total += uint32(keyCount[m])
		}
		postBase[ord+1] = total
	}
	s.Postings = make([]uint32, postBase[numCells])

	// Per-cell pass: each worker owns a contiguous cell range holding about
	// the same share of postings, fills the per-cell arrays and its
	// Postings ranges, and collects its (cell, keyword) entries locally.
	parts := make([]cellKwPart, workers)
	forRanges(workers, numCells, func(i int) uint64 { return uint64(postBase[i]) + uint64(s.MemberOff[i]) }, func(w, lo, hi int) {
		parts[w] = s.fillCells(lo, hi, objs, postBase)
	})
	var numKw int
	for _, p := range parts {
		numKw += len(p.kw)
	}
	s.CellKw = make([]uint32, 0, numKw)
	s.PostOff = append(make([]uint32, 0, numKw+1), 0)
	kwWeight := make([]float64, 0, numKw)
	for _, p := range parts {
		s.CellKw = append(s.CellKw, p.kw...)
		s.PostOff = append(s.PostOff, p.postEnd...)
		kwWeight = append(kwWeight, p.weight...)
	}
	for ord := 0; ord < numCells; ord++ {
		s.KwOff[ord+1] += s.KwOff[ord]
	}

	// Vocab-major inverted index: a counting sort of the (cell, keyword)
	// entries by keyword, filled in ascending cell order, then each
	// keyword's range ordered decreasingly by weight, ties by cell.
	for _, k := range s.CellKw {
		if int(k) >= s.VocabN {
			s.VocabN = int(k) + 1
		}
	}
	s.InvOff = make([]uint32, s.VocabN+1)
	for _, k := range s.CellKw {
		s.InvOff[k+1]++
	}
	for k := 0; k < s.VocabN; k++ {
		s.InvOff[k+1] += s.InvOff[k]
	}
	inv := make([]invEntry, numKw)
	next := append([]uint32(nil), s.InvOff[:s.VocabN]...)
	for ord := 0; ord < numCells; ord++ {
		for j := s.KwOff[ord]; j < s.KwOff[ord+1]; j++ {
			inv[next[s.CellKw[j]]] = invEntry{int32(ord), kwWeight[j]}
			next[s.CellKw[j]]++
		}
	}
	forRanges(workers, s.VocabN, func(i int) uint64 { return uint64(s.InvOff[i]) }, func(_, lo, hi int) {
		var sc invScratch
		for k := lo; k < hi; k++ {
			sc.sort(inv[s.InvOff[k]:s.InvOff[k+1]])
		}
	})
	s.InvCell = make([]int32, numKw)
	s.InvWeight = make([]float64, numKw)
	for i, e := range inv {
		s.InvCell[i], s.InvWeight[i] = e.ord, e.weight
	}
	return s, nil
}

// sortByCell returns the object ids 0..len(cids)-1 ordered by cell id,
// ties by object id: an LSD radix sort, one stable counting pass per
// 11-bit digit of the largest cell id present. Below radixMin objects —
// a describe's photo pool — a comparison sort beats clearing and
// prefix-summing a 2,049-entry count per digit.
func sortByCell(cids []CellID) []uint32 {
	const digit = 11
	order := make([]uint32, len(cids))
	var maxID CellID
	for i, c := range cids {
		order[i] = uint32(i)
		if c > maxID {
			maxID = c
		}
	}
	if len(cids) < radixMin {
		slices.SortFunc(order, func(a, b uint32) int {
			if c := cmp.Compare(cids[a], cids[b]); c != 0 {
				return c
			}
			return cmp.Compare(a, b)
		})
		return order
	}
	tmp := make([]uint32, len(cids))
	for shift := 0; shift < bits.Len32(uint32(maxID)); shift += digit {
		var count [1<<digit + 1]uint32
		for _, c := range cids {
			count[(uint32(c)>>shift)&(1<<digit-1)+1]++
		}
		for d := 1; d < len(count); d++ {
			count[d] += count[d-1]
		}
		for _, m := range order {
			d := (uint32(cids[m]) >> shift) & (1<<digit - 1)
			tmp[count[d]] = m
			count[d]++
		}
		order, tmp = tmp, order
	}
	return order
}

// forRanges splits 0..n into at most workers contiguous ranges of about
// equal cumulative cost — cost(i) is the non-decreasing cost of the items
// before i — and runs fn(w, lo, hi) on each concurrently, returning when
// all are done.
func forRanges(workers, n int, cost func(i int) uint64, fn func(w, lo, hi int)) {
	if workers < 2 || n < 2 {
		fn(0, 0, n)
		return
	}
	total := cost(n)
	var wg sync.WaitGroup
	lo := 0
	for w := 0; w < workers; w++ {
		hi := n
		if w < workers-1 {
			target := total * uint64(w+1) / uint64(workers)
			hi = lo + sort.Search(n-lo, func(i int) bool { return cost(lo+i) >= target })
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			fn(w, lo, hi)
		}(w, lo, hi)
		lo = hi
	}
	wg.Wait()
}

// cellKwPart is one worker's share of the arrays indexed by (cell,
// keyword) entry, in cell then keyword order: the keyword, the absolute
// end of its postings, and their summed weight.
type cellKwPart struct {
	kw      []uint32
	postEnd []uint32
	weight  []float64
}

// fillCells computes cells lo..hi: the cardinality bounds, the total
// weight, the keyword count (left in KwOff[ord+1] for the caller's prefix
// sum) and the postings, written into the cell's range of s.Postings. A
// cell's (keyword, member) pairs are sorted as packed integers, which
// groups them by ascending keyword with ascending members inside, the
// order the Slab contract asks of postings and of their weight sums.
func (s *Slab) fillCells(lo, hi int, objs Objects, postBase []uint32) cellKwPart {
	// Every (cell, keyword) entry holds at least one posting, so the
	// range's postings bound its entries, and its widest cell the pairs.
	n := postBase[hi] - postBase[lo]
	part := cellKwPart{kw: make([]uint32, 0, n), postEnd: make([]uint32, 0, n), weight: make([]float64, 0, n)}
	var widest uint32
	for ord := lo; ord < hi; ord++ {
		widest = max(widest, postBase[ord+1]-postBase[ord])
	}
	pairs := make([]uint64, 0, widest)
	for ord := lo; ord < hi; ord++ {
		members := s.Members[s.MemberOff[ord]:s.MemberOff[ord+1]]
		psiMin, psiMax := math.MaxInt, 0
		var total float64
		pairs = pairs[:0]
		for _, m := range members {
			ks := objs.Keys(int(m))
			psiMin, psiMax = min(psiMin, len(ks)), max(psiMax, len(ks))
			total += s.ObjW[m]
			for _, k := range ks {
				pairs = append(pairs, uint64(k)<<32|uint64(m))
			}
		}
		s.PsiMin[ord], s.PsiMax[ord], s.CellWeight[ord] = int32(psiMin), int32(psiMax), total
		slices.Sort(pairs)
		at := postBase[ord]
		for i, p := range pairs {
			k, m := uint32(p>>32), uint32(p)
			if i == 0 || k != uint32(pairs[i-1]>>32) {
				part.kw = append(part.kw, k)
				part.postEnd = append(part.postEnd, at)
				part.weight = append(part.weight, 0)
				s.KwOff[ord+1]++
			}
			s.Postings[at] = m
			at++
			part.postEnd[len(part.postEnd)-1] = at
			part.weight[len(part.weight)-1] += s.ObjW[m]
		}
	}
	return part
}

// invEntry is one (cell ordinal, weight) entry of a keyword's inverted
// range while the ranges are being sorted.
type invEntry struct {
	ord    int32
	weight float64
}

// invScratch is one worker's buffers for sorting inverted ranges.
type invScratch struct {
	keys, tmpKeys []uint64
	tmp           []invEntry
}

// radixMin is the range length below which a comparison sort is faster
// than eight byte histograms.
const radixMin = 64

// sort orders one keyword's entries, which arrive in ascending cell
// order, by decreasing weight, ties by ascending cell. A weight that is
// not negative orders as its IEEE-754 bits do (−0 taken as +0), so a
// stable LSD radix sort of the complemented bits does it without
// comparisons, and skips each byte all the keys share — most of them for
// the small integer weights of an unweighted corpus. Short ranges, and
// any holding a negative or NaN weight, take the comparison sort.
func (sc *invScratch) sort(es []invEntry) {
	n := len(es)
	if n < radixMin {
		sortInvCmp(es)
		return
	}
	if cap(sc.keys) < n {
		sc.keys, sc.tmpKeys, sc.tmp = make([]uint64, n), make([]uint64, n), make([]invEntry, n)
	}
	keys, tmpKeys, tmp := sc.keys[:n], sc.tmpKeys[:n], sc.tmp[:n]
	var count [8][256]uint32
	for i, e := range es {
		if !(e.weight >= 0) {
			sortInvCmp(es)
			return
		}
		k := ^uint64(0)
		if e.weight != 0 {
			k = ^math.Float64bits(e.weight)
		}
		keys[i] = k
		for b := range count {
			count[b][byte(k>>(8*b))]++
		}
	}
	src, dst := es, tmp
	for b := range count {
		c := &count[b]
		if c[byte(keys[0]>>(8*b))] == uint32(n) {
			continue
		}
		var sum uint32
		for d := range c {
			c[d], sum = sum, sum+c[d]
		}
		for i, k := range keys {
			d := byte(k >> (8 * b))
			dst[c[d]], tmpKeys[c[d]] = src[i], k
			c[d]++
		}
		src, dst = dst, src
		keys, tmpKeys = tmpKeys, keys
	}
	if &src[0] != &es[0] {
		copy(es, src)
	}
}

// sortInvCmp is the comparison sort of invScratch.sort.
func sortInvCmp(es []invEntry) {
	slices.SortFunc(es, func(a, b invEntry) int {
		if a.weight != b.weight {
			if a.weight > b.weight {
				return -1
			}
			return 1
		}
		return cmp.Compare(a.ord, b.ord)
	})
}

// sliceObjects is Objects over parallel slices: no keywords when keys is
// empty, weight 1 when weights is nil.
type sliceObjects struct {
	locs    []geo.Point
	keys    []vocab.Set
	weights []float64
}

func newSliceObjects(locs []geo.Point, keys []vocab.Set, weights []float64) (*sliceObjects, error) {
	if len(keys) != 0 && len(keys) != len(locs) {
		return nil, fmt.Errorf("grid: %d locations but %d keyword sets", len(locs), len(keys))
	}
	if weights != nil && len(weights) != len(locs) {
		return nil, fmt.Errorf("grid: %d locations but %d weights", len(locs), len(weights))
	}
	return &sliceObjects{locs: locs, keys: keys, weights: weights}, nil
}

func (o *sliceObjects) Len() int { return len(o.locs) }

func (o *sliceObjects) Loc(i int) geo.Point { return o.locs[i] }

func (o *sliceObjects) Keys(i int) vocab.Set {
	if len(o.keys) == 0 {
		return nil
	}
	return o.keys[i]
}

func (o *sliceObjects) Weight(i int) float64 {
	if o.weights == nil {
		return 1
	}
	return o.weights[i]
}
