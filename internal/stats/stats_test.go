package stats

import (
	"bytes"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// The histogram promises exactly reproducible bucket assignment: bounds
// are integer nanoseconds and an observation equal to a bound lands in
// that bound's bucket (le semantics), one nanosecond more in the next.

func TestBucketIndexBoundaries(t *testing.T) {
	bounds := bucketBoundsNanos[:]
	if len(bounds) != NumBuckets-1 {
		t.Fatalf("len(bucketBoundsNanos) = %d, want %d", len(bounds), NumBuckets-1)
	}
	for i, b := range bounds {
		if got := bucketIndex(b); got != i {
			t.Errorf("bucketIndex(%d) = %d, want %d (on-bound value belongs to its bucket)", b, got, i)
		}
		if got := bucketIndex(b + 1); got != i+1 {
			t.Errorf("bucketIndex(%d) = %d, want %d (one past the bound spills over)", b+1, got, i+1)
		}
	}
	if got := bucketIndex(0); got != 0 {
		t.Errorf("bucketIndex(0) = %d, want 0", got)
	}
	over := bounds[len(bounds)-1] + 1
	if got := bucketIndex(over); got != NumBuckets-1 {
		t.Errorf("bucketIndex(%d) = %d, want +Inf bucket %d", over, got, NumBuckets-1)
	}
}

func TestHistogramObserve(t *testing.T) {
	var h Histogram
	h.Observe(1 * time.Microsecond)   // bucket 0 (≤ 1µs)
	h.Observe(1500 * time.Nanosecond) // bucket 1 (≤ 2µs)
	h.Observe(-time.Second)           // clamped to 0, bucket 0
	h.Observe(time.Hour)              // +Inf bucket
	s := h.Snapshot()
	if s.Count != 4 {
		t.Fatalf("Count = %d, want 4", s.Count)
	}
	wantSum := 1_000 + 1_500 + 0 + time.Hour.Nanoseconds()
	if s.SumNano != wantSum {
		t.Fatalf("Sum = %v, want %v", time.Duration(s.SumNano), time.Duration(wantSum))
	}
	if s.Buckets[0] != 2 || s.Buckets[1] != 1 || s.Buckets[NumBuckets-1] != 1 {
		t.Fatalf("buckets = %v", s.Buckets)
	}
}

func TestHistogramQuantile(t *testing.T) {
	// 100 observations: 50 in the ≤1ms bucket, 45 in ≤10ms, 5 in ≤100ms.
	// Quantiles are upper-bound estimates of the ⌈q·n⌉-th sample, so the
	// values below are exact consequences of the bucket layout.
	var h Histogram
	for i := 0; i < 50; i++ {
		h.Observe(time.Millisecond)
	}
	for i := 0; i < 45; i++ {
		h.Observe(10 * time.Millisecond)
	}
	for i := 0; i < 5; i++ {
		h.Observe(100 * time.Millisecond)
	}
	cases := []struct {
		q    float64
		want time.Duration
	}{
		{0.50, time.Millisecond},       // rank 50 is the last ≤1ms sample
		{0.51, 10 * time.Millisecond},  // rank 51 crosses into ≤10ms
		{0.95, 10 * time.Millisecond},  // rank 95 is the last ≤10ms sample
		{0.99, 100 * time.Millisecond}, // rank 99 lands in ≤100ms
		{1.00, 100 * time.Millisecond},
	}
	for _, c := range cases {
		if got := h.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%.2f) = %v, want %v", c.q, got, c.want)
		}
	}
	var empty Histogram
	if got := empty.Quantile(0.5); got != 0 {
		t.Errorf("empty Quantile = %v, want 0", got)
	}
}

func TestHistogramQuantileOverflowBucket(t *testing.T) {
	// All samples beyond the last finite bound: quantiles report that
	// bound rather than inventing a number for the unbounded bucket.
	var h Histogram
	h.Observe(time.Hour)
	last := time.Duration(bucketBoundsNanos[NumBuckets-2])
	if got := h.Quantile(0.5); got != last {
		t.Fatalf("Quantile(0.5) = %v, want last finite bound %v", got, last)
	}
}

func TestCounterSetMax(t *testing.T) {
	var c Counter
	c.SetMax(5)
	c.SetMax(3)
	if got := c.Load(); got != 5 {
		t.Fatalf("after SetMax(5), SetMax(3): Load = %d, want 5", got)
	}
	c.SetMax(9)
	if got := c.Load(); got != 9 {
		t.Fatalf("after SetMax(9): Load = %d, want 9", got)
	}
	if got := c.Add(-2); got != 7 {
		t.Fatalf("Add(-2) = %d, want 7", got)
	}
}

// TestConcurrentIncrements hammers one counter, one gauge-with-peak and
// one histogram from many goroutines; run under -race this doubles as
// the race-cleanliness proof, and the final values must be exact.
func TestConcurrentIncrements(t *testing.T) {
	const workers, perWorker = 16, 1000
	var (
		c    Counter
		peak Counter
		h    Histogram
		wg   sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Add(1)
				peak.SetMax(int64(w*perWorker + i))
				h.Observe(time.Duration(i) * time.Microsecond)
			}
		}(w)
	}
	wg.Wait()
	if got := c.Load(); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := peak.Load(); got != workers*perWorker-1 {
		t.Errorf("peak = %d, want %d", got, workers*perWorker-1)
	}
	if got := h.Snapshot().Count; got != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", got, workers*perWorker)
	}
	// Every worker observes the same duration multiset, so the sum is
	// workers × Σ(i µs for i in [0, perWorker)).
	wantSum := int64(workers) * int64(perWorker*(perWorker-1)/2) * 1_000
	if got := h.Snapshot().SumNano; got != wantSum {
		t.Errorf("histogram sum = %d ns, want %d", got, wantSum)
	}
}

func TestNilRecorderSnapshot(t *testing.T) {
	var r *Recorder
	if s := r.Snapshot(); s != (Snapshot{}) {
		t.Fatalf("nil recorder snapshot = %+v, want zero", s)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRecorder()
	r.Engine.Queries.Add(3)
	r.Engine.InFlight.Add(2)
	r.Engine.QueryLatency.Observe(time.Millisecond)
	r.Engine.QueryLatency.Observe(time.Second)
	var buf bytes.Buffer
	if err := r.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "schedule") {
		t.Fatalf("a recorder no executor feeds names a schedule:\n%s", buf.String())
	}
	r.Engine.Schedule.Store("drain")
	buf.Reset()
	if err := r.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE soi_engine_queries_total counter\nsoi_engine_queries_total 3\n",
		"# TYPE soi_engine_in_flight gauge\nsoi_engine_in_flight 2\n",
		"# TYPE soi_engine_query_latency_seconds histogram\n",
		`soi_engine_query_latency_seconds_bucket{le="0.001"} 1`,
		`soi_engine_query_latency_seconds_bucket{le="1"} 2`,
		`soi_engine_query_latency_seconds_bucket{le="+Inf"} 2`,
		"soi_engine_query_latency_seconds_count 2\n",
		"# TYPE soi_engine_schedule_info gauge\nsoi_engine_schedule_info{schedule=\"drain\"} 1\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Cumulative le buckets must be monotone non-decreasing.
	prev := int64(-1)
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "soi_engine_query_latency_seconds_bucket") {
			continue
		}
		n, err := strconv.ParseInt(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
		if err != nil {
			t.Fatalf("unparsable bucket line %q: %v", line, err)
		}
		if n < prev {
			t.Fatalf("bucket counts not cumulative at %q", line)
		}
		prev = n
	}
}
