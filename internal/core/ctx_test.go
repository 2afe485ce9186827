package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/faults"
)

// TestSOIContextExpiredBeforeStart: a context that is already done must
// fail the query before any list is built or popped — no evaluation work.
func TestSOIContextExpiredBeforeStart(t *testing.T) {
	ix := buildFixture(t)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	res, st, err := ix.SOIContext(ctx, Query{Keywords: []string{"shop"}, K: 2, Epsilon: 0.1}, CostAware, nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if res != nil {
		t.Fatalf("results = %v, want nil (no evaluation)", res)
	}
	if st.FilterIterations != 0 || st.SegmentsSeen != 0 {
		t.Fatalf("stats = %+v, want zero work before the first checkpoint", st)
	}
}

// TestSOIContextCancelMidFilter: a cancellation that lands while the
// filter phase is parked (a wedged source, modelled by a Block fault at the
// filter checkpoint) must surface context.Canceled promptly instead of
// hanging. Drain parks on its third relevant cell: its marking pass runs
// no UB/LBk iterations to poll at, so it polls the checkpoint once per
// relevant cell it walks, not once per query.
func TestSOIContextCancelMidFilter(t *testing.T) {
	for _, tc := range []struct {
		strat Strategy
		after int
	}{{CostAware, 0}, {Drain, 2}} {
		t.Run(tc.strat.String(), func(t *testing.T) {
			ix := buildFixture(t)
			block := make(chan struct{})
			defer close(block)
			faults.Activate(SiteFilter, faults.Fault{Block: block, After: tc.after})
			defer faults.Deactivate(SiteFilter)

			ctx, cancel := context.WithCancel(context.Background())
			type outcome struct {
				res []StreetResult
				st  Stats
				err error
			}
			done := make(chan outcome, 1)
			go func() {
				res, st, err := ix.SOIContext(ctx, Query{Keywords: []string{"shop"}, K: 2, Epsilon: 0.1}, tc.strat, nil)
				done <- outcome{res, st, err}
			}()

			deadline := time.After(2 * time.Second)
			for faults.Visits(SiteFilter) <= tc.after {
				select {
				case o := <-done:
					t.Fatalf("evaluation ended after %d checkpoint visits (err %v), want it parked on visit %d",
						faults.Visits(SiteFilter), o.err, tc.after+1)
				case <-deadline:
					t.Fatal("filter checkpoint never reached the armed visit")
				default:
					time.Sleep(time.Millisecond)
				}
			}
			cancel()
			select {
			case o := <-done:
				if !errors.Is(o.err, context.Canceled) {
					t.Fatalf("err = %v, want context.Canceled", o.err)
				}
				if o.res != nil {
					t.Fatalf("results = %v, want nil on cancellation", o.res)
				}
				if tc.strat == Drain && (o.st.CellAccesses != tc.after || o.st.SegmentsSeen == 0 || o.st.CellVisits != 0) {
					t.Fatalf("stats = %+v, want %d cells walked, some segments marked, none visited", o.st, tc.after)
				}
			case <-time.After(2 * time.Second):
				t.Fatal("SOIContext did not observe cancellation at the filter checkpoint")
			}
		})
	}
}

// TestSOIContextBackgroundIdentical: threading a live background context
// must not change any answer — the checkpoints are read-only on the
// non-cancelled path.
func TestSOIContextBackgroundIdentical(t *testing.T) {
	ix := buildFixture(t)
	q := Query{Keywords: []string{"shop"}, K: 2, Epsilon: 0.1}
	want, _, err := ix.SOI(q)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := ix.SOIContext(context.Background(), q, CostAware, nil)
	if err != nil {
		t.Fatal(err)
	}
	compareResults(t, "ctx", got, want)
}
