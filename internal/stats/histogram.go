package stats

import (
	"sync/atomic"
	"time"
)

// bucketBoundsNanos are the histogram bucket upper bounds, a 1-2-5
// series from 1µs to 10s. Observations above the last bound land in an
// implicit +Inf bucket. The bounds are integers (nanoseconds) so bucket
// assignment involves no float comparison and is exactly reproducible.
var bucketBoundsNanos = [...]int64{
	1_000, 2_000, 5_000,
	10_000, 20_000, 50_000,
	100_000, 200_000, 500_000,
	1_000_000, 2_000_000, 5_000_000,
	10_000_000, 20_000_000, 50_000_000,
	100_000_000, 200_000_000, 500_000_000,
	1_000_000_000, 2_000_000_000, 5_000_000_000,
	10_000_000_000,
}

// NumBuckets is the number of histogram buckets, including the +Inf
// overflow bucket.
const NumBuckets = len(bucketBoundsNanos) + 1

// Histogram is a fixed-bucket latency histogram, safe for concurrent
// observation. The zero value is ready to use. Quantiles are
// upper-bound estimates: Quantile returns the upper bound of the bucket
// containing the requested rank, which makes the reported p50/p95/p99
// deterministic functions of the observation multiset.
type Histogram struct {
	counts [NumBuckets]atomic.Int64
	count  atomic.Int64
	sum    atomic.Int64 // nanoseconds
}

// bucketIndex returns the index of the bucket holding an observation of
// d nanoseconds.
func bucketIndex(nanos int64) int {
	// Linear scan: 22 integer compares on a cold array beats binary
	// search bookkeeping at this size, and observation is not on the
	// per-cell hot path (one call per query).
	for i, b := range bucketBoundsNanos {
		if nanos <= b {
			return i
		}
	}
	return NumBuckets - 1
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	n := d.Nanoseconds()
	if n < 0 {
		n = 0
	}
	h.counts[bucketIndex(n)].Add(1)
	h.count.Add(1)
	h.sum.Add(n)
}

// Quantile returns an upper bound on the q-quantile (0 < q ≤ 1) of the
// observed durations: the upper bound of the bucket containing the
// ⌈q·count⌉-th smallest observation. Observations beyond the last
// finite bound report that bound. Returns 0 when empty.
func (h *Histogram) Quantile(q float64) time.Duration {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := int64(q * float64(total))
	if float64(rank) < q*float64(total) {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := 0; i < NumBuckets-1; i++ {
		cum += h.counts[i].Load()
		if cum >= rank {
			return time.Duration(bucketBoundsNanos[i])
		}
	}
	return time.Duration(bucketBoundsNanos[len(bucketBoundsNanos)-1])
}

// HistogramSnapshot is a point-in-time copy of a histogram, with the
// standard latency summary quantiles precomputed.
type HistogramSnapshot struct {
	Count   int64 `json:"count"`
	SumNano int64 `json:"sum_ns"`
	P50Nano int64 `json:"p50_ns"`
	P95Nano int64 `json:"p95_ns"`
	P99Nano int64 `json:"p99_ns"`
	// Buckets holds the per-bucket counts in bound order; bucket i
	// covers (bound[i-1], bound[i]], the last bucket is +Inf.
	Buckets [NumBuckets]int64 `json:"buckets"`
}

// Snapshot copies the histogram counters.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count:   h.count.Load(),
		SumNano: h.sum.Load(),
		P50Nano: h.Quantile(0.50).Nanoseconds(),
		P95Nano: h.Quantile(0.95).Nanoseconds(),
		P99Nano: h.Quantile(0.99).Nanoseconds(),
	}
	for i := range h.counts {
		s.Buckets[i] = h.counts[i].Load()
	}
	return s
}
