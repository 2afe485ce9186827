package engine

// Tests for the executor's epoch threading: a Config.Source makes every
// evaluation resolve, pin and release the current index epoch, and keys
// the result cache by the epoch's sequence number so entries cached
// under one epoch can never answer queries after the next publish.

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/network"
	"repro/internal/poi"
)

// fakeSource is a hand-driven EpochSource: tests swap epochs explicitly
// and count acquire/release pairs.
type fakeSource struct {
	mu       sync.Mutex
	seq      uint64
	ix       *core.Index
	acquires atomic.Int64
	releases atomic.Int64
}

func (s *fakeSource) swap(seq uint64, ix *core.Index) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq, s.ix = seq, ix
}

func (s *fakeSource) AcquireEpoch() (uint64, *core.Index, func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.acquires.Add(1)
	return s.seq, s.ix, func() { s.releases.Add(1) }
}

// buildIndexWith builds an index over n seeded POIs (different n ⇒
// different answers, standing in for different epochs' corpora).
func buildIndexWith(t testing.TB, n int) *core.Index {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	nb := network.NewBuilder()
	for s := 0; s < 12; s++ {
		y := float64(s) * 0.7
		nb.AddStreet("street", []geo.Point{geo.Pt(0, y), geo.Pt(3, y+rng.Float64()*0.2)})
	}
	net, err := nb.Build()
	if err != nil {
		t.Fatal(err)
	}
	kws := []string{"shop", "food", "museum", "park"}
	pb := poi.NewBuilder(nil)
	for i := 0; i < n; i++ {
		var tags []string
		for _, kw := range kws {
			if rng.Float64() < 0.4 {
				tags = append(tags, kw)
			}
		}
		pb.Add(geo.Pt(rng.Float64()*3, rng.Float64()*8), tags)
	}
	ix, err := core.NewIndex(net, pb.Build(), core.IndexConfig{CellSize: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func TestEpochKeyedCacheNeverServesAcrossEpochs(t *testing.T) {
	src := &fakeSource{}
	src.swap(1, buildIndexWith(t, 400))
	e := New(nil, Config{Source: src})
	q := core.Query{Keywords: []string{"shop"}, K: 5, Epsilon: 0.4}

	first := e.Do(q)
	if first.Err != nil {
		t.Fatal(first.Err)
	}
	if first.Epoch != 1 || first.Cached {
		t.Fatalf("first = {Epoch %d Cached %t}, want fresh epoch-1 evaluation", first.Epoch, first.Cached)
	}
	hit := e.Do(q)
	if !hit.Cached || hit.Epoch != 1 {
		t.Fatalf("repeat on same epoch = {Epoch %d Cached %t}, want epoch-1 cache hit", hit.Epoch, hit.Cached)
	}

	// Publish a different corpus as epoch 2: the same query must be
	// re-evaluated (the epoch-1 entry is unreachable by key) and answer
	// from the new index.
	src.swap(2, buildIndexWith(t, 150))
	second := e.Do(q)
	if second.Err != nil {
		t.Fatal(second.Err)
	}
	if second.Cached || second.Epoch != 2 {
		t.Fatalf("post-publish = {Epoch %d Cached %t}, want fresh epoch-2 evaluation", second.Epoch, second.Cached)
	}
	if len(second.Streets) == len(first.Streets) {
		same := true
		for i := range second.Streets {
			if second.Streets[i].Street != first.Streets[i].Street ||
				second.Streets[i].Interest != first.Streets[i].Interest {
				same = false
				break
			}
		}
		if same {
			t.Fatal("post-publish answer identical to pre-publish answer over a different corpus: stale cache entry served")
		}
	}

	// The old epoch's entry must not shadow the new one even after the
	// new epoch is cached.
	hit2 := e.Do(q)
	if !hit2.Cached || hit2.Epoch != 2 {
		t.Fatalf("repeat on epoch 2 = {Epoch %d Cached %t}, want epoch-2 cache hit", hit2.Epoch, hit2.Cached)
	}
}

func TestEpochPinnedAndReleasedPerEvaluation(t *testing.T) {
	src := &fakeSource{}
	src.swap(1, buildIndexWith(t, 200))
	e := New(nil, Config{Source: src})
	qs := []core.Query{
		{Keywords: []string{"shop"}, K: 3, Epsilon: 0.4},
		{Keywords: []string{"food"}, K: 5, Epsilon: 0.4},
		{Keywords: []string{"shop"}, K: 3, Epsilon: 0.4}, // cache hit still pins
	}
	for _, q := range qs {
		if res := e.Do(q); res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	res := e.Batch(qs)
	for _, r := range res {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		if r.Epoch != 1 {
			t.Fatalf("batch result epoch = %d, want 1", r.Epoch)
		}
	}
	if a, r := src.acquires.Load(), src.releases.Load(); a == 0 || a != r {
		t.Fatalf("acquires %d != releases %d; every evaluation must release its epoch pin", a, r)
	}
}

func TestStaticExecutorIsEpochZero(t *testing.T) {
	e := New(buildIndex(t), Config{})
	res := e.Do(core.Query{Keywords: []string{"shop"}, K: 3, Epsilon: 0.4})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Epoch != 0 {
		t.Fatalf("static executor epoch = %d, want 0", res.Epoch)
	}
}
