package core

import (
	"encoding/binary"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/network"
	"repro/internal/vocab"
)

// interestMemoPerSegment caps the interest memo at this many entries per
// network segment. Routes and trajectory SOI over Berlin 0.25 hold about
// 1.5 entries per segment after 32,000 requests, so 4 leaves headroom
// for a working set that keeps shifting. interestMemoMinEntries is the
// cap's floor, so a network of a handful of segments still holds a few
// keyword sets.
const (
	interestMemoPerSegment = 4
	interestMemoMinEntries = 1024
)

// interestTableEntries is what opening a (Ψ, ε) costs, in entries, before
// its first interest: its registry key and slot weigh about as much as
// eight memoized interests. The key adds one entry per keyword.
const interestTableEntries = 8

// interestGen is one generation of the index's memo of exact segment
// interest (Def. 2), filled lazily. A registry numbers each resolved
// (Ψ, ε) the generation has seen; the interests live in one open-addressed
// table of (number, segment) → interest with at least twice as many
// slots as the cap has entries, so a probe stays short and readers take
// no lock. The memo never evicts: when a charge would take it past its
// cap, the generation closes — it stores nothing more — and the index
// starts an empty one. Dropping everything costs one refold per
// still-hot segment, and keeps the per-request path free of recency
// bookkeeping.
type interestGen struct {
	mu     sync.RWMutex
	tables map[string]uint64 // (Ψ, ε) key → its number, shifted into a slot key's high word

	slots []interestSlot // length a power of two
	shift uint           // 64 − log2(len(slots))
	// held counts the entries charged: one per memoized interest, and
	// interestTableEntries+|Ψ| per registered (Ψ, ε). Past limit the
	// generation is closed.
	held  atomic.Int64
	limit int64
}

// interestSlot holds one memoized interest. key is the (Ψ, ε) number in
// the high word and the segment id in the low one; 0 is an empty slot.
// val holds the interest's bits complemented, so the zero a slot starts
// with reads as "claimed, not yet written" — the complement of a NaN no
// arithmetic produces — and a reader that meets it folds for itself.
type interestSlot struct {
	key, val atomic.Uint64
}

func newInterestGen(limit int64) *interestGen {
	logSlots := bits.Len64(uint64(2*limit - 1)) // 2^logSlots ≥ 2·limit
	return &interestGen{
		tables: make(map[string]uint64),
		slots:  make([]interestSlot, 1<<logSlots),
		shift:  uint(64 - logSlots),
		limit:  limit,
	}
}

// charge books n entries and reports whether the generation still fits.
func (g *interestGen) charge(n int) bool { return g.held.Add(int64(n)) <= g.limit }

func (g *interestGen) closed() bool { return g.held.Load() > g.limit }

// home is key's first probe: Fibonacci hashing onto the slot table.
func (g *interestGen) home(key uint64) uint64 { return (key * 0x9e3779b97f4a7c15) >> g.shift }

// load returns the interest memoized under key, if it has been written.
func (g *interestGen) load(key uint64) (float64, bool) {
	mask := uint64(len(g.slots) - 1)
	for i := g.home(key); ; i = (i + 1) & mask {
		switch g.slots[i].key.Load() {
		case key:
			v := g.slots[i].val.Load()
			return math.Float64frombits(^v), v != 0
		case 0:
			return 0, false
		}
	}
}

// store memoizes v under key unless the generation is full or another
// reader claimed the slot first; that reader stores the same bits.
func (g *interestGen) store(key uint64, v float64) {
	b := math.Float64bits(v)
	if b == math.MaxUint64 || !g.charge(1) {
		return
	}
	mask := uint64(len(g.slots) - 1)
	for i := g.home(key); ; i = (i + 1) & mask {
		s := &g.slots[i]
		if s.key.CompareAndSwap(0, key) {
			s.val.Store(^b)
			return
		}
		if s.key.Load() == key {
			return
		}
	}
}

// interestLimit is the memo's cap in entries.
func (ix *Index) interestLimit() int64 {
	return max(interestMemoMinEntries, interestMemoPerSegment*int64(len(ix.segLen)))
}

// interestGen returns the current generation, starting the first on
// first use.
func (ix *Index) interestGen() *interestGen {
	if g := ix.interests.Load(); g != nil {
		return g
	}
	ix.interests.CompareAndSwap(nil, newInterestGen(ix.interestLimit()))
	return ix.interests.Load()
}

// resetInterests replaces the closed generation g with an empty one and
// reports whether this call did it; a generation that has already been
// replaced is left alone.
func (ix *Index) resetInterests(g *interestGen) bool {
	if ix.interests.Load() != g {
		return false
	}
	return ix.interests.CompareAndSwap(g, newInterestGen(ix.interestLimit()))
}

// InterestMemo is one request's reader of the index's interest memo for
// one keyword set and ε. Its Interest method is the traj.InterestFunc
// routes and trajectory SOI are evaluated with; it returns exactly the
// bits SegmentInterest computes. An InterestMemo belongs to one request
// and is not safe for concurrent use; the memo under it is.
type InterestMemo struct {
	ix  *Index
	gen *interestGen
	// tag is the (Ψ, ε) number in a slot key's high word; 0 when the
	// generation had no room to register it, and the reader only folds.
	tag uint64
	// fresh is set when this reader registered the (Ψ, ε): nothing is
	// memoized under its tag yet, so it stores without looking up.
	fresh bool
	query vocab.Set
	eps   float64

	hits, misses, resets int
}

// InterestCounts is what one InterestMemo did: interests served from the
// memo, interests folded (SegmentInterest called), resets it caused, and
// the entries the index's memo holds now.
type InterestCounts struct {
	Hits, Misses, Resets, Entries int
}

// InterestOf opens the memo for one request's keyword set, as LookupAll
// resolves it, and ε. The memo lives and dies with the index, so a live
// engine starts an empty one with every epoch; it holds at most
// interestMemoPerSegment entries per segment, or interestMemoMinEntries.
// An ε that is not positive and finite is refused with ErrBadEpsilon: it
// would key entries no later request hits, and fold to NaN or build an
// ε-plan per call.
func (ix *Index) InterestOf(query vocab.Set, eps float64) (*InterestMemo, error) {
	if err := CheckEpsilon(eps); err != nil {
		return nil, err
	}
	var buf [64]byte
	key := binary.LittleEndian.AppendUint64(buf[:0], math.Float64bits(eps))
	for _, kw := range query {
		key = binary.LittleEndian.AppendUint32(key, kw)
	}
	g := ix.interestGen()
	m := &InterestMemo{ix: ix, gen: g, query: query, eps: eps}
	g.mu.RLock()
	m.tag = g.tables[string(key)]
	g.mu.RUnlock()
	if m.tag != 0 {
		return m, nil
	}
	g.mu.Lock()
	if m.tag = g.tables[string(key)]; m.tag == 0 && g.charge(interestTableEntries+len(query)) {
		m.tag, m.fresh = uint64(len(g.tables)+1)<<32, true
		g.tables[string(key)] = m.tag
	}
	g.mu.Unlock()
	m.reset()
	return m, nil
}

// Interest returns the exact interest of segment sid (Def. 2): the
// memoized value, or SegmentInterest's, stored for later requests.
// Concurrent first touches of one segment may both fold; they store the
// same bits.
func (m *InterestMemo) Interest(sid network.SegmentID) float64 {
	if m.tag != 0 && !m.fresh {
		if v, ok := m.gen.load(m.tag | uint64(sid)); ok {
			m.hits++
			return v
		}
	}
	m.misses++
	v := m.ix.SegmentInterest(sid, m.query, m.eps)
	if m.tag != 0 {
		m.gen.store(m.tag|uint64(sid), v)
		m.reset()
	}
	return v
}

// reset starts a fresh generation if this reader's has closed.
func (m *InterestMemo) reset() {
	if m.gen.closed() && m.ix.resetInterests(m.gen) {
		m.resets++
	}
}

// Counts reports what this reader did so far.
func (m *InterestMemo) Counts() InterestCounts {
	g := m.ix.interestGen()
	return InterestCounts{
		Hits:    m.hits,
		Misses:  m.misses,
		Resets:  m.resets,
		Entries: int(min(g.held.Load(), g.limit)),
	}
}
