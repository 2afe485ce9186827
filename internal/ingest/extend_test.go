package ingest_test

// Tests for what an epoch shares with its predecessor: an extended epoch
// is indistinguishable from a from-scratch build of the same corpus, a
// compaction re-installs the serving index instead of rebuilding it, and
// a delta the cell lattice cannot hold never enters the log.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/geo"
	"repro/internal/grid"
	"repro/internal/ingest"
	"repro/internal/network"
	"repro/internal/poi"
	"repro/internal/stats"
)

// mustAdd appends deltas that the ingestor has no reason to refuse.
func mustAdd(t testing.TB, ing *ingest.Ingestor, ds []ingest.Delta) {
	t.Helper()
	if _, err := ing.AddBatch(ds); err != nil {
		t.Fatalf("AddBatch: %v", err)
	}
}

// mustMatchFromScratch compares the serving epoch with a cold build over
// corpus: dictionary names in id order, the POIs, the slab bytes and the
// answers, bit for bit.
func mustMatchFromScratch(t *testing.T, label string, net *network.Network, ing *ingest.Ingestor, corpus []ingest.Delta) {
	t.Helper()
	want := coldIndex(t, net, corpus)
	_, got, _, release := ing.AcquireEpoch()
	defer release()

	gd, wd := got.POIs().Dict(), want.POIs().Dict()
	if gd.Len() != wd.Len() {
		t.Fatalf("%s: dictionary holds %d keywords, from scratch %d", label, gd.Len(), wd.Len())
	}
	for id := 0; id < wd.Len(); id++ {
		if g, w := gd.Name(uint32(id)), wd.Name(uint32(id)); g != w {
			t.Fatalf("%s: keyword id %d is %q, from scratch %q", label, id, g, w)
		}
	}
	if g, w := got.POIs().All(), want.POIs().All(); len(g) != len(w) || len(w) > 0 && !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: POIs differ from a from-scratch corpus", label)
	}
	if !bytes.Equal(got.Slab().AppendBinary(nil), want.Slab().AppendBinary(nil)) {
		t.Fatalf("%s: slab bytes differ from a from-scratch build", label)
	}
	for _, q := range append([]core.Query{{Keywords: []string{"zeppelin", "cafe"}, K: 4, Epsilon: 0.0007}}, testQueries...) {
		mustEqualResults(t, fmt.Sprintf("%s, query %v", label, q.Keywords), runSOI(t, got, q), runSOI(t, want, q))
	}
}

// TestExtendedEpochMatchesFromScratch runs 20 seeded interleavings of
// appends, publishes and compactions — with batches that bring a keyword
// no earlier POI carried, default-weight POIs, an empty publish and a
// publish → compact → publish sequence in every one — and checks each
// installed epoch against a from-scratch build of its corpus.
func TestExtendedEpochMatchesFromScratch(t *testing.T) {
	net := testNet(t)
	for seed := int64(0); seed < 20; seed++ {
		r := rand.New(rand.NewSource(100 + seed))
		corpus := randDeltas(r, 10+r.Intn(40))
		if seed%5 == 0 {
			corpus = nil // an empty base: the first publish creates the dictionary's first ids
		}
		ing, err := ingest.New(net, corpus, ingest.Config{CellSize: testCell})
		if err != nil {
			t.Fatal(err)
		}
		label := func(step string) string { return fmt.Sprintf("seed %d, %s", seed, step) }
		mustMatchFromScratch(t, label("base"), net, ing, corpus)

		publish := func(step string, ds []ingest.Delta) {
			t.Helper()
			mustAdd(t, ing, ds)
			if _, folded, err := ing.Publish(); err != nil || folded != len(ds) {
				t.Fatalf("%s: Publish folded %d of %d (%v)", label(step), folded, len(ds), err)
			}
			corpus = append(corpus, ds...)
			mustMatchFromScratch(t, label(step), net, ing, corpus)
		}
		for round := 0; round < 2+r.Intn(3); round++ {
			ds := randDeltas(r, 1+r.Intn(12))
			if r.Intn(2) == 0 {
				ds[r.Intn(len(ds))].Keywords = []string{fmt.Sprintf("fresh%d", round), "cafe"}
			}
			ds[0].Weight = 0
			publish(fmt.Sprintf("publish %d", round), ds)
		}
		seq := ing.Current().Seq()
		publish("empty publish", nil)
		if got := ing.Current().Seq(); got != seq {
			t.Fatalf("%s: an empty publish moved the epoch %d → %d", label(""), seq, got)
		}
		novel := randDeltas(r, 3)
		novel[1].Keywords = []string{"Zeppelin ", "museum"} // normalises to a keyword first seen here
		publish("publish before compact", novel)
		if _, _, err := ing.Compact(); err != nil {
			t.Fatal(err)
		}
		mustMatchFromScratch(t, label("compacted"), net, ing, corpus)
		publish("publish after compact", randDeltas(r, 5))
		if err := ing.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCompactReinstallsTheServingIndex: a compaction changes nothing a
// reader can see, so it must build nothing — the new epoch wraps the very
// index the old one served, under the next sequence number and a mass
// cache of its own that the old epoch's retirement leaves alone, with the
// ε-plans the old epoch warmed. With a snapshot path the file is written
// from that index without touching its dictionary, under readers.
func TestCompactReinstallsTheServingIndex(t *testing.T) {
	net := testNet(t)
	r := rand.New(rand.NewSource(31))
	path := filepath.Join(t.TempDir(), "compacted.soi")
	rec := stats.NewRecorder()
	ing, err := ingest.New(net, randDeltas(r, 40), ingest.Config{
		CellSize: testCell, SnapshotPath: path, Recorder: rec,
		Photos: []ingest.PhotoSpec{{Loc: geo.Pt(0.002, 0.001), Tags: []string{"a tag no POI carries", "cafe"}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ing.Close()
	mustAdd(t, ing, randDeltas(r, 20))
	if _, _, err := ing.Publish(); err != nil {
		t.Fatal(err)
	}

	preSeq, preIx, preMass, preRelease := ing.AcquireEpoch()
	var pre [][]core.StreetResult
	for _, q := range testQueries {
		res, _, err := preIx.SOIContext(context.Background(), q, core.CostAware, preMass)
		if err != nil {
			t.Fatal(err)
		}
		pre = append(pre, res)
	}
	dictLen := preIx.POIs().Dict().Len()

	// Readers keep querying the shared index while the compaction snapshots it.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				_, ix, mc, release := ing.AcquireEpoch()
				if _, _, err := ix.SOIContext(context.Background(), testQueries[i%len(testQueries)], core.CostAware, mc); err != nil {
					t.Error(err)
				}
				release()
			}
		}(g)
	}
	seq, folded, err := ing.Compact()
	close(stop)
	wg.Wait()
	if err != nil || seq != preSeq+1 || folded != 20 {
		t.Fatalf("Compact = (%d, %d, %v), want (%d, 20, nil)", seq, folded, err, preSeq+1)
	}

	postSeq, postIx, postMass, postRelease := ing.AcquireEpoch()
	defer postRelease()
	if postSeq != preSeq+1 || postIx != preIx {
		t.Fatalf("compacted epoch %d serves index %p, want epoch %d around the pre-compaction index %p", postSeq, postIx, preSeq+1, preIx)
	}
	if postMass == nil || postMass == preMass {
		t.Fatal("compacted epoch shares the retiring epoch's mass cache")
	}
	if got := postIx.POIs().Dict().Len(); got != dictLen {
		t.Fatalf("writing the snapshot grew the serving dictionary %d → %d", dictLen, got)
	}
	for i, q := range testQueries {
		res, _, err := postIx.SOIContext(context.Background(), q, core.CostAware, postMass)
		if err != nil {
			t.Fatal(err)
		}
		mustEqualResults(t, fmt.Sprintf("compacted epoch, query %v", q.Keywords), res, pre[i])
	}
	// Retire the old epoch for good: its release clears its own mass cache
	// and nothing the new epoch reads.
	preRelease()
	if live := ing.LiveEpochs(); live != 1 {
		t.Fatalf("live epochs = %d, want 1", live)
	}
	for i, q := range testQueries {
		res, _, err := postIx.SOIContext(context.Background(), q, core.CostAware, postMass)
		if err != nil {
			t.Fatal(err)
		}
		mustEqualResults(t, fmt.Sprintf("after the old epoch drained, query %v", q.Keywords), res, pre[i])
	}
}

// TestFarPOIIsRefused is the regression test for the silent corruption a
// single far-away POI used to cause. The lattice over an extent grown to
// (1e9, 1e9) has more cells than an int32 can number, so cell ids wrapped:
// on this two-street world street b then vanished from the k=2 answer
// (and a POI at (1e300, 1e300) emptied it), with HTTP 200 all the way, in
// that epoch and every later one, because the delta stayed in the log.
// AddBatch now refuses the batch before it enters the log.
func TestFarPOIIsRefused(t *testing.T) {
	nb := network.NewBuilder()
	nb.AddStreet("a", []geo.Point{geo.Pt(0, 0), geo.Pt(0.004, 0)})
	nb.AddStreet("b", []geo.Point{geo.Pt(0, 0.003), geo.Pt(0.004, 0.003)})
	net, err := nb.Build()
	if err != nil {
		t.Fatal(err)
	}
	base := []ingest.Delta{
		{Loc: geo.Pt(0.001, 0.0001), Keywords: []string{"shop"}},
		{Loc: geo.Pt(0.002, 0.0001), Keywords: []string{"shop"}},
		{Loc: geo.Pt(0.001, 0.0031), Keywords: []string{"shop"}},
	}
	rec := stats.NewRecorder()
	ing, err := ingest.New(net, base, ingest.Config{CellSize: testCell, Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	defer ing.Close()
	q := core.Query{Keywords: []string{"shop"}, K: 2, Epsilon: 0.0005}
	answer := func() []core.StreetResult {
		_, ix, _, release := ing.AcquireEpoch()
		defer release()
		return runSOI(t, ix, q)
	}
	want := answer()
	if len(want) != 2 {
		t.Fatalf("base answer holds %d streets, want a and b", len(want))
	}

	near := ingest.Delta{Loc: geo.Pt(0.003, 0.0031), Keywords: []string{"cafe"}}
	for _, far := range []geo.Point{geo.Pt(1e9, 1e9), geo.Pt(1e300, 1e300), geo.Pt(math.Inf(-1), 0), geo.Pt(0, math.NaN())} {
		// Alone and hidden in a batch: the whole batch is refused.
		for _, batch := range [][]ingest.Delta{
			{{Loc: far, Keywords: []string{"shop"}}},
			{near, {Loc: far, Keywords: []string{"shop"}}, near},
		} {
			n, err := ing.AddBatch(batch)
			if !errors.Is(err, grid.ErrLattice) || n != 0 {
				t.Fatalf("AddBatch with a POI at %v = (%d, %v), want (0, ErrLattice)", far, n, err)
			}
		}
		if _, _, pending := ing.Counts(); pending != 0 {
			t.Fatalf("a refused POI at %v left %d deltas in the log", far, pending)
		}
		if seq, folded, err := ing.Publish(); err != nil || seq != 1 || folded != 0 {
			t.Fatalf("Publish after a refused POI = (%d, %d, %v), want the no-op (1, 0, nil)", seq, folded, err)
		}
		mustEqualResults(t, fmt.Sprintf("after refusing a POI at %v", far), answer(), want)
	}
	if n := rec.Snapshot().Ingest.DeltasAppended; n != 0 {
		t.Fatalf("deltas_appended = %d after refusals only, want 0", n)
	}

	// The log is clean: an ordinary write still publishes, and the refused
	// locations did not grow the extent later batches are judged against.
	mustAdd(t, ing, []ingest.Delta{near, {Loc: geo.Pt(5, 5), Keywords: []string{"shop"}}})
	if _, folded, err := ing.Publish(); err != nil || folded != 2 {
		t.Fatalf("Publish after the refusals folded %d (%v), want 2", folded, err)
	}
	mustEqualResults(t, "after an ordinary publish", answer(), want)

	// A base corpus the lattice cannot hold fails New with the same error.
	if _, err := ingest.New(net, append(base, ingest.Delta{Loc: geo.Pt(1e9, 1e9), Keywords: []string{"shop"}}), ingest.Config{CellSize: testCell}); !errors.Is(err, grid.ErrLattice) {
		t.Fatalf("New over a far-away base POI: err = %v, want ErrLattice", err)
	}
}

// BenchmarkPublish times one 100-POI publish on the ingest_mixed world
// (Vienna 0.1): every iteration extends the previous epoch.
func BenchmarkPublish(b *testing.B) {
	ds, err := datagen.Generate(datagen.Scale(datagen.Vienna(), 0.1))
	if err != nil {
		b.Fatal(err)
	}
	dict := ds.POIs.Dict()
	base := make([]ingest.Delta, ds.POIs.Len())
	for i := range base {
		p := ds.POIs.Get(poi.ID(i))
		base[i] = ingest.Delta{Loc: p.Loc, Keywords: dict.Names(p.Keywords), Weight: p.Weight}
	}
	ing, err := ingest.New(ds.Network, base, ingest.Config{CellSize: testCell})
	if err != nil {
		b.Fatal(err)
	}
	defer ing.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch := make([]ingest.Delta, 100)
		for j := range batch {
			batch[j] = base[(i*100+j)%len(base)]
		}
		mustAdd(b, ing, batch)
		if _, _, err := ing.Publish(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Milliseconds())/float64(b.N), "ms/publish")
}
