package ingest_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/ingest"
	"repro/internal/network"
	"repro/internal/poi"
	"repro/internal/snapshot"
	"repro/internal/stats"
	"repro/internal/vocab"
)

const testCell = 0.0005

var testKeywords = []string{"cafe", "shop", "park", "museum", "food"}

// testNet builds a small street grid: 4 horizontal and 4 vertical
// streets over a 0.01 × 0.01 extent.
func testNet(t *testing.T) *network.Network {
	t.Helper()
	nb := network.NewBuilder()
	for i := 0; i < 4; i++ {
		y := 0.001 + 0.0025*float64(i)
		nb.AddStreet(fmt.Sprintf("h%d", i), []geo.Point{
			geo.Pt(0, y), geo.Pt(0.004, y), geo.Pt(0.01, y),
		})
		x := 0.001 + 0.0025*float64(i)
		nb.AddStreet(fmt.Sprintf("v%d", i), []geo.Point{
			geo.Pt(x, 0), geo.Pt(x, 0.006), geo.Pt(x, 0.01),
		})
	}
	net, err := nb.Build()
	if err != nil {
		t.Fatalf("building network: %v", err)
	}
	return net
}

// randDeltas derives n deterministic deltas from the rng.
func randDeltas(r *rand.Rand, n int) []ingest.Delta {
	out := make([]ingest.Delta, n)
	for i := range out {
		kws := []string{testKeywords[r.Intn(len(testKeywords))]}
		if r.Intn(3) == 0 {
			kws = append(kws, testKeywords[r.Intn(len(testKeywords))])
		}
		out[i] = ingest.Delta{
			Loc:      geo.Pt(r.Float64()*0.01, r.Float64()*0.01),
			Keywords: kws,
			Weight:   1 + float64(r.Intn(3)),
		}
	}
	return out
}

// coldIndex builds a fresh compact index over the given corpus specs,
// mirroring what an epoch build does.
func coldIndex(t *testing.T, net *network.Network, corpus []ingest.Delta) *core.Index {
	t.Helper()
	pb := poi.NewBuilder(vocab.NewDictionary())
	for _, d := range corpus {
		pb.AddWeighted(d.Loc, d.Keywords, d.Weight)
	}
	ix, err := core.NewIndex(net, pb.Build(), core.IndexConfig{CellSize: testCell})
	if err != nil {
		t.Fatalf("cold index build: %v", err)
	}
	return ix
}

var testQueries = []core.Query{
	{Keywords: []string{"cafe"}, K: 5, Epsilon: 0.0008},
	{Keywords: []string{"shop", "park"}, K: 3, Epsilon: 0.0005},
	{Keywords: []string{"museum", "food", "cafe"}, K: 8, Epsilon: 0.0012},
}

// mustEqualResults compares two rankings bit-exactly.
func mustEqualResults(t *testing.T, label string, got, want []core.StreetResult) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d results, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i].Street != want[i].Street ||
			math.Float64bits(got[i].Interest) != math.Float64bits(want[i].Interest) ||
			math.Float64bits(got[i].Mass) != math.Float64bits(want[i].Mass) {
			t.Fatalf("%s: rank %d differs: got {street %d interest %x mass %x}, want {street %d interest %x mass %x}",
				label, i,
				got[i].Street, math.Float64bits(got[i].Interest), math.Float64bits(got[i].Mass),
				want[i].Street, math.Float64bits(want[i].Interest), math.Float64bits(want[i].Mass))
		}
	}
}

func runSOI(t *testing.T, ix *core.Index, q core.Query) []core.StreetResult {
	t.Helper()
	res, _, err := ix.SOIContext(context.Background(), q, core.CostAware, nil)
	if err != nil {
		t.Fatalf("SOI: %v", err)
	}
	return res
}

func TestPublishInstallsEquivalentEpoch(t *testing.T) {
	net := testNet(t)
	r := rand.New(rand.NewSource(1))
	base := randDeltas(r, 40)
	ing, err := ingest.New(net, base, ingest.Config{CellSize: testCell})
	if err != nil {
		t.Fatal(err)
	}
	defer ing.Close()
	if got := ing.Current().Seq(); got != 1 {
		t.Fatalf("initial epoch seq = %d, want 1", got)
	}

	delta := randDeltas(r, 25)
	if n, err := ing.AddBatch(delta); n != 25 || err != nil {
		t.Fatalf("AddBatch = (%d, %v), want (25, nil)", n, err)
	}
	seq, folded, err := ing.Publish()
	if err != nil {
		t.Fatal(err)
	}
	if seq != 2 || folded != 25 {
		t.Fatalf("Publish = (%d, %d), want (2, 25)", seq, folded)
	}
	b, p, pend := ing.Counts()
	if b != 40 || p != 25 || pend != 0 {
		t.Fatalf("Counts = (%d, %d, %d), want (40, 25, 0)", b, p, pend)
	}

	// The published epoch must answer bit-identically to a cold rebuild
	// over base ++ delta in append order.
	want := coldIndex(t, net, append(append([]ingest.Delta(nil), base...), delta...))
	gotSeq, ix, release := ing.AcquireEpoch()
	defer release()
	if gotSeq != 2 {
		t.Fatalf("AcquireEpoch seq = %d, want 2", gotSeq)
	}
	for _, q := range testQueries {
		mustEqualResults(t, fmt.Sprintf("epoch 2 vs cold, query %v", q.Keywords),
			runSOI(t, ix, q), runSOI(t, want, q))
	}

	// Publishing with nothing pending is a no-op.
	seq, folded, err = ing.Publish()
	if err != nil || seq != 2 || folded != 0 {
		t.Fatalf("no-op Publish = (%d, %d, %v), want (2, 0, nil)", seq, folded, err)
	}
}

func TestCompactFoldsLogAndPreservesAnswers(t *testing.T) {
	net := testNet(t)
	r := rand.New(rand.NewSource(2))
	ing, err := ingest.New(net, randDeltas(r, 30), ingest.Config{CellSize: testCell})
	if err != nil {
		t.Fatal(err)
	}
	defer ing.Close()
	ing.AddBatch(randDeltas(r, 20))
	if _, _, err := ing.Publish(); err != nil {
		t.Fatal(err)
	}
	ing.AddBatch(randDeltas(r, 10))
	if _, _, err := ing.Publish(); err != nil {
		t.Fatal(err)
	}

	_, preIx, preRelease := ing.AcquireEpoch()
	var pre [][]core.StreetResult
	for _, q := range testQueries {
		pre = append(pre, runSOI(t, preIx, q))
	}
	preRelease()

	seq, folded, err := ing.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if seq != 4 || folded != 30 {
		t.Fatalf("Compact = (%d, %d), want (4, 30)", seq, folded)
	}
	b, p, pend := ing.Counts()
	if b != 60 || p != 0 || pend != 0 {
		t.Fatalf("Counts after compact = (%d, %d, %d), want (60, 0, 0)", b, p, pend)
	}
	_, postIx, postRelease := ing.AcquireEpoch()
	defer postRelease()
	for i, q := range testQueries {
		mustEqualResults(t, fmt.Sprintf("compacted vs pre-compaction, query %v", q.Keywords),
			runSOI(t, postIx, q), pre[i])
	}

	// Compacting an already-compacted log is a no-op.
	seq, folded, err = ing.Compact()
	if err != nil || seq != 4 || folded != 0 {
		t.Fatalf("no-op Compact = (%d, %d, %v), want (4, 0, nil)", seq, folded, err)
	}
}

func TestEpochRefcountLifecycle(t *testing.T) {
	net := testNet(t)
	r := rand.New(rand.NewSource(3))
	rec := stats.NewRecorder()
	ing, err := ingest.New(net, randDeltas(r, 20), ingest.Config{CellSize: testCell, Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	defer ing.Close()

	// Pin epoch 1, then publish twice: epoch 1 must survive until its
	// reader releases, epoch 2 must retire as soon as epoch 3 installs.
	seq1, ix1, release1 := ing.AcquireEpoch()
	if seq1 != 1 {
		t.Fatalf("pinned seq = %d, want 1", seq1)
	}
	ing.AddBatch(randDeltas(r, 5))
	if _, _, err := ing.Publish(); err != nil {
		t.Fatal(err)
	}
	ing.AddBatch(randDeltas(r, 5))
	if _, _, err := ing.Publish(); err != nil {
		t.Fatal(err)
	}
	if live, retired := ing.LiveEpochs(), ing.RetiredEpochs(); live != 2 || retired != 1 {
		t.Fatalf("with a pinned old epoch: live = %d retired = %d, want 2, 1", live, retired)
	}
	// The pinned index must still answer (its arrays were not released).
	_ = runSOI(t, ix1, testQueries[0])
	release1()
	if live, retired := ing.LiveEpochs(), ing.RetiredEpochs(); live != 1 || retired != 2 {
		t.Fatalf("after release: live = %d retired = %d, want 1, 2", live, retired)
	}

	snap := rec.Snapshot()
	if snap.Ingest.EpochSeq != 3 || snap.Ingest.Publishes != 2 || snap.Ingest.EpochsRetired != 2 || snap.Ingest.EpochsLive != 1 {
		t.Fatalf("recorder: %+v", snap.Ingest)
	}
	if snap.Ingest.DeltasAppended != 10 || snap.Ingest.DeltasPending != 0 {
		t.Fatalf("delta counters: %+v", snap.Ingest)
	}
}

func TestConcurrentReadersAndWriters(t *testing.T) {
	net := testNet(t)
	r := rand.New(rand.NewSource(4))
	ing, err := ingest.New(net, randDeltas(r, 30), ingest.Config{CellSize: testCell})
	if err != nil {
		t.Fatal(err)
	}
	defer ing.Close()

	const rounds = 6
	deltas := make([][]ingest.Delta, rounds)
	for i := range deltas {
		deltas[i] = randDeltas(r, 8)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				seq, ix, release := ing.AcquireEpoch()
				res := runSOI(t, ix, testQueries[i%len(testQueries)])
				release()
				if seq == 0 || (len(res) == 0 && seq > 1) {
					// seq 0 impossible; empty results tolerated but the
					// acquire itself must always yield a live epoch.
					if seq == 0 {
						t.Errorf("AcquireEpoch returned seq 0")
						return
					}
				}
			}
		}(g)
	}
	for i := 0; i < rounds; i++ {
		ing.AddBatch(deltas[i])
		if _, _, err := ing.Publish(); err != nil {
			t.Errorf("publish round %d: %v", i, err)
		}
	}
	if _, _, err := ing.Compact(); err != nil {
		t.Errorf("compact: %v", err)
	}
	close(stop)
	wg.Wait()

	if got := ing.Current().Seq(); got != uint64(rounds)+2 {
		t.Fatalf("final seq = %d, want %d", got, rounds+2)
	}
	if live := ing.LiveEpochs(); live != 1 {
		t.Fatalf("live epochs after drain = %d, want 1 (no refcount leaks)", live)
	}
}

func TestAutoPublishAndCompact(t *testing.T) {
	net := testNet(t)
	r := rand.New(rand.NewSource(5))
	ing, err := ingest.New(net, randDeltas(r, 20), ingest.Config{
		CellSize:     testCell,
		BatchSize:    10,
		CompactAfter: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ing.Close()

	// Two batches of 10 trigger two auto-publishes, which trigger one
	// auto-compaction.
	ing.AddBatch(randDeltas(r, 10))
	waitFor(t, "auto-publish 1", func() bool { return ing.Current().Seq() >= 2 })
	ing.AddBatch(randDeltas(r, 10))
	waitFor(t, "auto-publish 2 + auto-compact", func() bool {
		b, p, pend := ing.Counts()
		return ing.Current().Seq() >= 4 && b == 40 && p == 0 && pend == 0
	})
	if err := ing.Err(); err != nil {
		t.Fatalf("background error: %v", err)
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestCompactionSnapshotRoundTrip(t *testing.T) {
	net := testNet(t)
	r := rand.New(rand.NewSource(6))
	path := filepath.Join(t.TempDir(), "compacted.soi")
	ing, err := ingest.New(net, randDeltas(r, 25), ingest.Config{
		CellSize:     testCell,
		SnapshotPath: path,
		Photos: []ingest.PhotoSpec{
			{Loc: geo.Pt(0.002, 0.001), Tags: []string{"cafe", "street"}},
			{Loc: geo.Pt(0.004, 0.003), Tags: []string{"park"}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ing.Close()
	ing.AddBatch(randDeltas(r, 15))
	if _, _, err := ing.Publish(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ing.Compact(); err != nil {
		t.Fatal(err)
	}

	snap, m, err := snapshot.Open(path)
	if err != nil {
		t.Fatalf("opening compaction snapshot: %v", err)
	}
	defer m.Close()
	reloaded, err := core.NewIndexFromSlab(snap.Net, snap.POIs, snap.Slab)
	if err != nil {
		t.Fatalf("rebuilding from snapshot: %v", err)
	}
	if snap.Photos.Len() != 2 {
		t.Fatalf("snapshot photos = %d, want 2", snap.Photos.Len())
	}
	_, ix, release := ing.AcquireEpoch()
	defer release()
	for _, q := range testQueries {
		mustEqualResults(t, fmt.Sprintf("snapshot reload, query %v", q.Keywords),
			runSOI(t, reloaded, q), runSOI(t, ix, q))
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := ingest.New(testNet(t), nil, ingest.Config{}); err == nil {
		t.Fatal("New accepted a zero cell size")
	}
}
