package core

import (
	"context"
	"sort"
	"strings"
	"sync"

	"repro/internal/network"
	"repro/internal/vocab"
)

// MassCache shares exact segment masses across query evaluations over
// one index. Once every ε-near cell of a segment has been visited, the
// segment's exact mass depends only on ⟨segment, Ψ, ε⟩ — not on k or on
// the algorithm's traversal state — so later runs over the same keyword
// set skip the segment's cell visits entirely. Cached values are the
// bit-exact floats the uncached path computes (final masses fold
// per-cell contributions in canonical Cε(ℓ) order; each contribution
// streams POIs in id order), so results are identical with and without
// the cache. MassCache is safe for concurrent use; it is sharded to keep
// lock contention off the hot path.
//
// The cache grows up to a configured entry budget — cached masses and
// interned keyword sets alike — and then stops admitting new entries
// (existing ones keep serving hits; a query over a keyword set it could
// not intern evaluates uncached). It belongs to one index: an ingest
// epoch gets a fresh one.
type MassCache struct {
	psiMu sync.Mutex
	psis  map[string]uint32 // canonical resolved keyword set → dense id

	limit  int64
	size   int64 // masses plus interned sets; guarded by psiMu
	finals [massCacheShards]finalShard
}

const massCacheShards = 64

// DefaultMassCacheEntries bounds a MassCache built with size 0: at ~50
// bytes per entry this is on the order of 100 MB, far below the index
// itself for city-scale datasets.
const DefaultMassCacheEntries = 1 << 21

type finalShard struct {
	mu sync.RWMutex
	m  map[finalKey]float64
}

type finalKey struct {
	sid network.SegmentID
	psi uint32
	eps float64
}

// NewMassCache returns a cache bounded to maxEntries contributions (0
// means DefaultMassCacheEntries).
func NewMassCache(maxEntries int) *MassCache {
	if maxEntries <= 0 {
		maxEntries = DefaultMassCacheEntries
	}
	mc := &MassCache{psis: make(map[string]uint32), limit: int64(maxEntries)}
	for i := range mc.finals {
		mc.finals[i].m = make(map[finalKey]float64)
	}
	return mc
}

// Clear drops every cached mass and keyword-set id.
func (mc *MassCache) Clear() {
	for i := range mc.finals {
		s := &mc.finals[i]
		s.mu.Lock()
		s.m = make(map[finalKey]float64)
		s.mu.Unlock()
	}
	mc.psiMu.Lock()
	mc.psis = make(map[string]uint32)
	mc.size = 0
	mc.psiMu.Unlock()
}

// Len returns the number of cached segment masses.
func (mc *MassCache) Len() int {
	var n int
	for i := range mc.finals {
		s := &mc.finals[i]
		s.mu.RLock()
		n += len(s.m)
		s.mu.RUnlock()
	}
	return n
}

// psiID interns a resolved keyword set into a dense id, so that mass keys
// stay small and hash quickly. A new set is charged one entry against the
// budget; once that is spent it is refused, and the caller evaluates
// without the cache.
func (mc *MassCache) psiID(query vocab.Set) (uint32, bool) {
	var b strings.Builder
	for _, id := range query {
		b.WriteByte(byte(id))
		b.WriteByte(byte(id >> 8))
		b.WriteByte(byte(id >> 16))
		b.WriteByte(byte(id >> 24))
	}
	key := b.String()
	mc.psiMu.Lock()
	defer mc.psiMu.Unlock()
	if id, ok := mc.psis[key]; ok {
		return id, true
	}
	if mc.size >= mc.limit {
		return 0, false
	}
	mc.size++
	id := uint32(len(mc.psis))
	mc.psis[key] = id
	return id, true
}

func (mc *MassCache) finalShardFor(k finalKey) *finalShard {
	h := uint64(uint32(k.sid))*0x9e3779b1 ^ uint64(k.psi)<<21
	return &mc.finals[h%massCacheShards]
}

func (mc *MassCache) getFinal(k finalKey) (float64, bool) {
	s := mc.finalShardFor(k)
	s.mu.RLock()
	v, ok := s.m[k]
	s.mu.RUnlock()
	return v, ok
}

func (mc *MassCache) putFinal(k finalKey, v float64) {
	if !mc.admit() {
		return
	}
	s := mc.finalShardFor(k)
	s.mu.Lock()
	s.m[k] = v
	s.mu.Unlock()
}

// admit charges one entry against the budget, reporting whether the
// cache may still grow.
func (mc *MassCache) admit() bool {
	mc.psiMu.Lock()
	defer mc.psiMu.Unlock()
	if mc.size >= mc.limit {
		return false
	}
	mc.size++
	return true
}

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
// and SL3 with occasional SL2 accesses; every schedule below terminates
// with the same result set, to the bit.
type Strategy int

const (
	// CostAware is Index.SOI's schedule and a live executor's: SL1 drives
	// the search, SL3 is consumed while its head is cheap to finalize, SL2
	// only while its head is an outlier in neighboring-cell count.
	CostAware Strategy = iota
	// RoundRobin is the literal Algorithm 1 schedule: one access from
	// SL1, then SL2, then SL3, cyclically.
	RoundRobin
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
	case RoundRobin:
		return "round-robin"
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
// context, with an optional shared MassCache. A nil cache evaluates the
// query standalone; because cached contributions are the bit-exact values
// the standalone path computes, the results are identical either way and
// only the work to obtain them is shared. An already-expired context
// returns its error without touching the index; a context cancelled
// mid-evaluation is observed at a cooperative checkpoint inside the
// filter and refine loops (every cancelCheckEvery iterations) and
// surfaces as the context's error with the partial Stats accumulated so
// far. On the non-cancelled path the checkpoints read state only, so
// results remain bit-identical to an uncancellable evaluation.
func (ix *Index) SOIContext(ctx context.Context, q Query, strat Strategy, mc *MassCache) ([]StreetResult, Stats, error) {
	if err := ctx.Err(); err != nil {
		return nil, Stats{}, err
	}
	query, err := ix.resolve(q)
	if err != nil {
		return nil, Stats{}, err
	}
	return ix.soiResolved(ctx, query, q.K, q.Epsilon, strat, mc, nil)
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
