package ingest_test

// Chaos suite for the write path: faults armed at ingest.publish,
// ingest.compact and ingest.swap (see internal/faults) must never
// corrupt an installed epoch, leak an epoch reference, or let a query
// observe a half-published index. Every scenario runs under -race in CI.

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/ingest"
)

func newChaosIngestor(t *testing.T, seed int64) (*ingest.Ingestor, *rand.Rand) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	ing, err := ingest.New(testNet(t), randDeltas(r, 30), ingest.Config{CellSize: testCell})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ing.Close() })
	return ing, r
}

// snapshotAnswers evaluates every test query on the current epoch.
func snapshotAnswers(t *testing.T, ing *ingest.Ingestor) (uint64, [][]core.StreetResult) {
	t.Helper()
	seq, ix, _, release := ing.AcquireEpoch()
	defer release()
	var out [][]core.StreetResult
	for _, q := range testQueries {
		out = append(out, runSOI(t, ix, q))
	}
	return seq, out
}

// TestPublishPanicLeavesEpochIntact arms a panic at each publish-path
// site in turn: the publish must fail as an error, the installed epoch
// and its answers must be byte-for-byte what they were, the delta log
// must still hold the unfolded deltas, and a retry must succeed.
func TestPublishPanicLeavesEpochIntact(t *testing.T) {
	for _, site := range []string{ingest.SitePublish, ingest.SiteSwap} {
		t.Run(site, func(t *testing.T) {
			ing, r := newChaosIngestor(t, 10)
			preSeq, pre := snapshotAnswers(t, ing)

			ing.AddBatch(randDeltas(r, 12))
			faults.Activate(site, faults.Fault{Panic: true, PanicValue: "chaos: " + site})
			_, _, err := ing.Publish()
			faults.Deactivate(site)
			if err == nil || !strings.Contains(err.Error(), "panicked") {
				t.Fatalf("publish with panic at %s: err = %v, want recovered panic", site, err)
			}

			// Installed epoch untouched: same sequence, same answers.
			postSeq, post := snapshotAnswers(t, ing)
			if postSeq != preSeq {
				t.Fatalf("panic advanced the epoch: %d -> %d", preSeq, postSeq)
			}
			for i := range pre {
				mustEqualResults(t, fmt.Sprintf("after panic at %s, query %d", site, i), post[i], pre[i])
			}
			// Log untouched: deltas still pending, none published.
			if _, p, pend := ing.Counts(); p != 0 || pend != 12 {
				t.Fatalf("log after panic: published %d pending %d, want 0, 12", p, pend)
			}
			// Retry succeeds and folds exactly the surviving deltas.
			seq, folded, err := ing.Publish()
			if err != nil || seq != preSeq+1 || folded != 12 {
				t.Fatalf("retry publish = (%d, %d, %v), want (%d, 12, nil)", seq, folded, err, preSeq+1)
			}
			if live := ing.LiveEpochs(); live != 1 {
				t.Fatalf("live epochs = %d, want 1 (no leaked references)", live)
			}
		})
	}
}

// TestCompactPanicLeavesEpochIntact does the same for the compaction
// path: a panic at ingest.compact or at the pre-swap site must leave the
// base/published split, the epoch and its answers untouched.
func TestCompactPanicLeavesEpochIntact(t *testing.T) {
	for _, site := range []string{ingest.SiteCompact, ingest.SiteSwap} {
		t.Run(site, func(t *testing.T) {
			ing, r := newChaosIngestor(t, 11)
			ing.AddBatch(randDeltas(r, 10))
			if _, _, err := ing.Publish(); err != nil {
				t.Fatal(err)
			}
			preSeq, pre := snapshotAnswers(t, ing)

			faults.Activate(site, faults.Fault{Panic: true})
			_, _, err := ing.Compact()
			faults.Deactivate(site)
			if err == nil || !strings.Contains(err.Error(), "panicked") {
				t.Fatalf("compact with panic at %s: err = %v, want recovered panic", site, err)
			}
			postSeq, post := snapshotAnswers(t, ing)
			if postSeq != preSeq {
				t.Fatalf("panic advanced the epoch: %d -> %d", preSeq, postSeq)
			}
			for i := range pre {
				mustEqualResults(t, fmt.Sprintf("after panic at %s, query %d", site, i), post[i], pre[i])
			}
			if b, p, _ := ing.Counts(); b != 30 || p != 10 {
				t.Fatalf("log after panic: base %d published %d, want 30, 10", b, p)
			}
			// Retry compacts cleanly.
			seq, folded, err := ing.Compact()
			if err != nil || seq != preSeq+1 || folded != 10 {
				t.Fatalf("retry compact = (%d, %d, %v), want (%d, 10, nil)", seq, folded, err, preSeq+1)
			}
		})
	}
}

// TestBlockedPublishDoesNotBlockReadersOrWriters wedges a publish on the
// ingest.publish site: while the publisher is parked, queries must keep
// answering from the installed epoch and writers must keep appending —
// the wedge may only stall the publish itself.
func TestBlockedPublishDoesNotBlockReadersOrWriters(t *testing.T) {
	ing, r := newChaosIngestor(t, 12)
	preSeq, pre := snapshotAnswers(t, ing)
	ing.AddBatch(randDeltas(r, 5))

	gate := make(chan struct{})
	faults.Activate(ingest.SitePublish, faults.Fault{Block: gate})
	defer faults.Deactivate(ingest.SitePublish)

	pubDone := make(chan error, 1)
	go func() {
		_, _, err := ing.Publish()
		pubDone <- err
	}()
	// Wait until the publisher is parked at the site.
	waitFor(t, "publisher to reach the block site", func() bool {
		return faults.Fired(ingest.SitePublish) == 1
	})

	// Readers: answers still come from the installed epoch, promptly.
	seq, got := snapshotAnswers(t, ing)
	if seq != preSeq {
		t.Fatalf("query during wedged publish saw epoch %d, want %d", seq, preSeq)
	}
	for i := range pre {
		mustEqualResults(t, fmt.Sprintf("during wedged publish, query %d", i), got[i], pre[i])
	}
	// Writers: appends return immediately.
	done := make(chan int, 1)
	go func() {
		n, _ := ing.AddBatch(randDeltas(r, 3))
		done <- n
	}()
	select {
	case n := <-done:
		if n != 8 {
			t.Fatalf("pending after append during wedge = %d, want 8", n)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("AddBatch blocked behind a wedged publish")
	}

	// Unwedge: the publish completes and folds every delta appended
	// before its log snapshot — which it takes after the block, so all 8.
	close(gate)
	if err := <-pubDone; err != nil {
		t.Fatalf("publish after unwedge: %v", err)
	}
	if got := ing.Current().Seq(); got != preSeq+1 {
		t.Fatalf("epoch after unwedge = %d, want %d", got, preSeq+1)
	}
}

// TestNoHalfPublishedEpochObservable hammers AcquireEpoch from many
// goroutines while publishes run with injected delays between build and
// swap: every acquired epoch must be fully built (its index non-nil and
// internally consistent — a query over it succeeds) and its sequence
// must never exceed the installed sequence or go backwards per reader.
func TestNoHalfPublishedEpochObservable(t *testing.T) {
	ing, r := newChaosIngestor(t, 13)
	faults.Activate(ingest.SiteSwap, faults.Fault{Delay: 2 * time.Millisecond})
	defer faults.Deactivate(ingest.SiteSwap)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastSeq uint64
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				seq, ix, _, release := ing.AcquireEpoch()
				if ix == nil {
					t.Error("acquired epoch with nil index")
					release()
					return
				}
				if seq < lastSeq {
					t.Errorf("epoch went backwards for one reader: %d after %d", seq, lastSeq)
					release()
					return
				}
				lastSeq = seq
				_ = runSOI(t, ix, testQueries[i%len(testQueries)])
				release()
			}
		}()
	}
	for i := 0; i < 5; i++ {
		ing.AddBatch(randDeltas(r, 6))
		if _, _, err := ing.Publish(); err != nil {
			t.Errorf("publish %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
	if live := ing.LiveEpochs(); live != 1 {
		t.Fatalf("live epochs after drain = %d, want 1", live)
	}
	if retired := ing.RetiredEpochs(); retired != 5 {
		t.Fatalf("retired epochs = %d, want 5", retired)
	}
}
