package engine

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
)

// countingEncoder renders an answer and counts how often it is asked to.
type countingEncoder struct{ calls atomic.Int64 }

func (c *countingEncoder) encode(rs []core.StreetResult) []byte {
	c.calls.Add(1)
	return []byte(fmt.Sprint(rs))
}

// TestEncodedBodyOncePerEntry: a miss has no encoded body and asks for
// none; the first hit on its cache entry encodes, every later hit — also
// concurrent ones — gets those bytes without encoding again.
func TestEncodedBodyOncePerEntry(t *testing.T) {
	e := New(buildIndex(t), Config{})
	q := testQueries()[0]
	var enc countingEncoder
	miss := e.Do(q)
	if body := miss.EncodedBody(enc.encode); body != nil || enc.calls.Load() != 0 {
		t.Fatalf("a fresh evaluation returned body %q after %d encodings, want neither", body, enc.calls.Load())
	}
	want := fmt.Sprint(miss.Streets)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				res := e.Do(q)
				if !res.Cached {
					t.Error("repeat query missed the cache")
					return
				}
				if body := res.EncodedBody(enc.encode); string(body) != want {
					t.Errorf("body %q, want %q", body, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := enc.calls.Load(); n != 1 {
		t.Fatalf("400 hits on one entry encoded it %d times, want once", n)
	}
}

// TestEncodedBodyDiesWithTheEntry: whatever drops the cache entry drops
// its bytes — LRU eviction, a new epoch — so the next hit on
// the re-cached answer encodes afresh.
func TestEncodedBodyDiesWithTheEntry(t *testing.T) {
	qs := testQueries()
	hitTwice := func(t *testing.T, e *Executor, enc *countingEncoder) {
		t.Helper()
		if res := e.Do(qs[0]); res.Cached || res.EncodedBody(enc.encode) != nil {
			t.Fatalf("want a miss without a body, got cached=%v", res.Cached)
		}
		for i := 0; i < 2; i++ {
			if res := e.Do(qs[0]); !res.Cached || res.EncodedBody(enc.encode) == nil {
				t.Fatalf("hit %d: cached=%v, want a hit with a body", i, res.Cached)
			}
		}
	}
	t.Run("eviction", func(t *testing.T) {
		e := New(buildIndex(t), Config{CacheSize: 1})
		var enc countingEncoder
		hitTwice(t, e, &enc)
		e.Do(qs[1]) // evicts qs[0]
		hitTwice(t, e, &enc)
		if n := enc.calls.Load(); n != 2 {
			t.Fatalf("%d encodings over two lives of the entry, want 2", n)
		}
	})
	t.Run("epoch", func(t *testing.T) {
		src := &fakeSource{}
		src.swap(1, buildIndexWith(t, 200))
		e := New(nil, Config{Source: src})
		var enc countingEncoder
		hitTwice(t, e, &enc)
		old := e.Do(qs[0]).EncodedBody(enc.encode)
		src.swap(2, buildIndexWith(t, 400))
		hitTwice(t, e, &enc)
		if cur := e.Do(qs[0]).EncodedBody(enc.encode); string(cur) == string(old) {
			t.Fatalf("the body served under epoch 2 is epoch 1's: %q", cur)
		}
		if n := enc.calls.Load(); n != 2 {
			t.Fatalf("%d encodings over two epochs, want 2", n)
		}
	})
}

// TestEncodedBodyNeverForBatchOrUncached: a batch member may be a prefix
// of its group's cached answer, and an executor without a cache has no
// entry to keep bytes with; both report no body.
func TestEncodedBodyNeverForBatchOrUncached(t *testing.T) {
	var enc countingEncoder
	e := New(buildIndex(t), Config{})
	small, large := testQueries()[0], testQueries()[0]
	large.K = small.K + 5
	e.Do(large)
	e.Do(large)
	for i, res := range e.Batch([]core.Query{small, large}) {
		if !res.Cached {
			t.Fatalf("batch member %d was not served from the group's cached answer", i)
		}
		if body := res.EncodedBody(enc.encode); body != nil {
			t.Fatalf("batch member %d carries body %q", i, body)
		}
	}
	off := New(buildIndex(t), Config{CacheSize: -1})
	for i := 0; i < 3; i++ {
		if res := off.Do(small); res.Cached || res.EncodedBody(enc.encode) != nil {
			t.Fatalf("uncached executor, query %d: cached=%v or a body", i, res.Cached)
		}
	}
	if n := enc.calls.Load(); n != 0 {
		t.Fatalf("%d encodings, want none", n)
	}
}
