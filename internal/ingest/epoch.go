package ingest

import (
	"sync/atomic"

	"repro/internal/core"
)

// Epoch is one immutable generation of the serving index: a fully built
// core.Index over a fixed POI corpus and a dense sequence number that
// keys every result-cache entry derived from it. A publish builds the
// epoch a new index; a compaction, which changes no POI, wraps its
// predecessor's. Epochs are reference-counted:
// installation holds one reference, and every in-flight query pins one
// more for the duration of its evaluation, so a retired epoch's memory
// is released only after the last reader drains.
type Epoch struct {
	seq uint64
	ix  *core.Index

	// refs counts the install reference plus in-flight readers. It is
	// created at 1 (the install reference); retire releases that
	// reference, and the epoch is dead once refs drains to 0.
	refs atomic.Int64

	// onRelease runs exactly once, when refs drains to zero.
	onRelease func(*Epoch)
}

// newEpoch returns an epoch holding its install reference.
func newEpoch(seq uint64, ix *core.Index, onRelease func(*Epoch)) *Epoch {
	ep := &Epoch{seq: seq, ix: ix, onRelease: onRelease}
	ep.refs.Add(1)
	return ep
}

// Seq returns the epoch's sequence number.
func (ep *Epoch) Seq() uint64 { return ep.seq }

// Index returns the epoch's immutable index.
func (ep *Epoch) Index() *core.Index { return ep.ix }

// tryAcquire pins the epoch for a reader. It refuses to resurrect an
// epoch whose count has already drained to zero (the pointer the reader
// loaded was stale and the epoch may be mid-release); the caller must
// reload the current epoch and retry.
func (ep *Epoch) tryAcquire() bool {
	for {
		n := ep.refs.Load()
		if n <= 0 {
			return false
		}
		if ep.refs.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// release drops one reference, firing onRelease when the count drains to
// zero. Exactly one caller observes the transition to zero, so the hook
// runs once.
func (ep *Epoch) release() {
	if ep.refs.Add(-1) == 0 && ep.onRelease != nil {
		ep.onRelease(ep)
	}
}
