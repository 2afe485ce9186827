package core_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/network"
	"repro/internal/oracle"
	"repro/internal/poi"
	"repro/internal/remote"
	"repro/internal/shard"
)

// sweepEps are the three ε of the oracle query matrix (sub-segment to
// multi-cell buffers on the Tiny extent).
var sweepEps = []float64{0.0002, 0.0005, 0.0012}

const boundCell = 0.0005

// boundKeywordSets covers the shapes UnseenBound distinguishes: one
// keyword (the pre-sorted inverted range), several (the accumulators),
// duplicates and order (the resolved set is sorted and deduplicated), a
// word no POI carries alone (no relevant cell) and mixed in (dropped).
var boundKeywordSets = [][]string{
	{"shop"},
	{"museum"},
	{"quixotic"},
	{"shop", "food"},
	{"food", "shop", "food"},
	{"shop", "quixotic"},
	{"park", "cafe", "hotel"},
	{"shop", "food", "services", "education", "market"},
}

// layouts opens the same world the two ways an index comes to be: built
// (NewIndex), and reconstructed from the slab alone as the snapshot
// loader does.
func layouts(t *testing.T, net *network.Network, pois *poi.Corpus) []*core.Index {
	t.Helper()
	built, err := core.NewIndex(net, pois, core.IndexConfig{CellSize: boundCell})
	if err != nil {
		t.Fatal(err)
	}
	fromSlab, err := core.NewIndexFromSlab(net, pois, built.Slab())
	if err != nil {
		t.Fatal(err)
	}
	return []*core.Index{built, fromSlab}
}

func mustBound(t *testing.T, ix *core.Index, q core.Query) float64 {
	t.Helper()
	ub, err := ix.UnseenBound(q)
	if err != nil {
		t.Fatalf("UnseenBound(%v): %v", q, err)
	}
	return ub
}

// TestUnseenBoundLayoutsAgree is the equivalence property the sharded
// tier's determinism rests on: over the oracle world matrix (three POI
// densities, weighted and unweighted) and all three sweep ε, the bound of
// a built index and of a slab-opened one is Float64bits-equal to the
// brute-force bound (corpus, reference grid and network; no evaluator), so
// a shard's (UB desc, id asc) position and every prune decision are the
// same however the shard came to be.
func TestUnseenBoundLayoutsAgree(t *testing.T) {
	var compared, positive int
	for seed := int64(0); seed < 8; seed++ {
		for _, cfg := range oracle.MatrixConfigs(seed, false) {
			w, err := cfg.BuildWorld()
			if err != nil {
				t.Fatal(err)
			}
			net, pois, _, _, err := w.Build()
			if err != nil {
				t.Fatal(err)
			}
			ixs := layouts(t, net, pois)
			for _, eps := range sweepEps {
				for _, kws := range boundKeywordSets {
					q := core.Query{Keywords: kws, K: 3, Epsilon: eps}
					want := core.BruteBound(ixs[0], q)
					for i, ix := range ixs {
						// Twice: the second call reuses the pooled scratch.
						for rep := 0; rep < 2; rep++ {
							got := mustBound(t, ix, q)
							if math.Float64bits(got) != math.Float64bits(want) {
								t.Fatalf("%s eps=%g %v: layout %d bound %v (%#x) != brute force %v (%#x)",
									cfg.Label(), eps, kws, i, got, math.Float64bits(got), want, math.Float64bits(want))
							}
						}
					}
					compared++
					if want > 0 {
						positive++
					}
				}
			}
			if ub := mustBound(t, ixs[0], core.Query{Keywords: []string{"quixotic"}, K: 1, Epsilon: 0.0005}); ub != 0 {
				t.Fatalf("%s: bound %v for a keyword no POI carries, want 0", cfg.Label(), ub)
			}
		}
	}
	if positive*2 < compared {
		t.Fatalf("only %d of %d compared bounds were positive; the matrix no longer exercises the bound", positive, compared)
	}
}

// TestUnseenBoundEdgeCases pins the degenerate inputs: a
// keyword interned after the index was built (its id lies beyond the
// slab's VocabN), alone and beside a known one; an invalid query; and an
// index with POIs but no segments.
func TestUnseenBoundEdgeCases(t *testing.T) {
	w, err := oracle.SeedConfig{Seed: 3, Density: 1}.BuildWorld()
	if err != nil {
		t.Fatal(err)
	}
	net, pois, _, _, err := w.Build()
	if err != nil {
		t.Fatal(err)
	}
	ixs := layouts(t, net, pois)
	late := pois.Dict().Intern("interned-after-build")
	if vn := ixs[0].Slab().VocabN; int(late) < vn {
		t.Fatalf("late keyword id %d is inside the slab vocabulary (%d)", late, vn)
	}
	for _, ix := range ixs {
		if ub := mustBound(t, ix, core.Query{Keywords: []string{"interned-after-build"}, K: 1, Epsilon: 0.0005}); ub != 0 {
			t.Errorf("bound %v for a keyword beyond the slab vocabulary, want 0", ub)
		}
		alone := mustBound(t, ix, core.Query{Keywords: []string{"shop"}, K: 1, Epsilon: 0.0005})
		mixed := mustBound(t, ix, core.Query{Keywords: []string{"shop", "interned-after-build"}, K: 1, Epsilon: 0.0005})
		if alone == 0 || math.Float64bits(alone) != math.Float64bits(mixed) {
			t.Errorf("bound with an out-of-vocabulary keyword mixed in = %v, want %v (> 0)", mixed, alone)
		}
		if _, err := ix.UnseenBound(core.Query{Keywords: []string{"shop"}, K: 1}); err == nil {
			t.Error("zero epsilon accepted")
		}
		if _, err := ix.UnseenBound(core.Query{K: 1, Epsilon: 0.0005}); err == nil {
			t.Error("empty keyword list accepted")
		}
	}

	empty, err := network.NewBuilder().Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, ix := range layouts(t, empty, pois) {
		for _, kws := range [][]string{{"shop"}, {"shop", "food"}} {
			if ub := mustBound(t, ix, core.Query{Keywords: kws, K: 1, Epsilon: 0.0005}); ub != 0 {
				t.Errorf("bound %v on an index without segments, want 0", ub)
			}
		}
	}
}

// TestUnseenBoundCapBinds: when POIs carry several query keywords the
// keyword sum overshoots the cell's total weight and SL1 caps it
// (Algorithm 1 line 2, generalized to weights). The bound must use the
// capped head.
func TestUnseenBoundCapBinds(t *testing.T) {
	nb := network.NewBuilder()
	nb.AddStreet("main", []geo.Point{geo.Pt(0, 0), geo.Pt(0.004, 0)})
	net, err := nb.Build()
	if err != nil {
		t.Fatal(err)
	}
	pb := poi.NewBuilder(nil)
	// One cell: total weight 4, but each keyword alone already sums to 4.
	pb.AddWeighted(geo.Pt(0.0011, 0.0001), []string{"shop", "food"}, 2.5)
	pb.AddWeighted(geo.Pt(0.0012, 0.0002), []string{"shop", "food"}, 1.5)
	// A second cell whose uncapped sum (3) is below the first's (8) and
	// below the first's cap (4).
	pb.AddWeighted(geo.Pt(0.0031, 0.0001), []string{"shop"}, 3)
	pois := pb.Build()
	ixs := layouts(t, net, pois)

	const eps = 0.0005
	// The network is one segment, so its Cε(ℓ) is top(SL2).
	top2 := float64(len(ixs[0].SegmentCells(eps)[0]))
	top3 := net.Segment(0).Length()
	capped := core.Interest(4*top2, top3, eps)
	uncapped := core.Interest(8*top2, top3, eps)
	q := core.Query{Keywords: []string{"shop", "food"}, K: 1, Epsilon: eps}
	for i, ix := range ixs {
		got := mustBound(t, ix, q)
		if math.Float64bits(got) != math.Float64bits(capped) {
			t.Errorf("layout %d: bound %v, want the capped %v (uncapped would be %v)", i, got, capped, uncapped)
		}
	}
}

// TestUnseenBoundSoundnessOracle is the soundness the coordinator's
// pruning needs, checked against the brute-force oracle rather than the
// index's own structures: on the whole world and on every shard of a
// 2/4/9-tile partition, the static bound is at least the exact interest
// of every segment the index owns.
func TestUnseenBoundSoundnessOracle(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		cfg := oracle.SeedConfig{Seed: seed, Density: 1, Weighted: seed%2 == 1}
		w, err := cfg.BuildWorld()
		if err != nil {
			t.Fatal(err)
		}
		net, pois, _, _, err := w.Build()
		if err != nil {
			t.Fatal(err)
		}
		ixs := layouts(t, net, pois)
		type owner struct {
			name     string
			ix       *core.Index
			segments []network.SegmentID // global ids of the owned segments
		}
		all := make([]network.SegmentID, net.NumSegments())
		for i := range all {
			all[i] = network.SegmentID(i)
		}
		owners := []owner{{"built", ixs[0], all}, {"slab-opened", ixs[1], all}}
		const halo = 0.0012
		for _, tiles := range []int{2, 4, 9} {
			sw, err := shard.Partition(net, pois, shard.Config{Tiles: tiles, Halo: halo, CellSize: boundCell})
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range sw.Shards {
				owners = append(owners, owner{fmt.Sprintf("shard %d/%d", s.ID, tiles), s.Index, s.Segments})
			}
		}
		for _, eps := range sweepEps {
			for _, kws := range [][]string{{"shop"}, {"shop", "food"}, {"park", "cafe", "hotel"}} {
				q := core.Query{Keywords: kws, K: 3, Epsilon: eps}
				query := oracle.ResolveKeywords(pois, kws)
				exact := make([]float64, net.NumSegments())
				for sid := range exact {
					exact[sid] = oracle.SegmentInterest(net, pois, network.SegmentID(sid), query, eps)
				}
				for _, o := range owners {
					ub := mustBound(t, o.ix, q)
					for _, sid := range o.segments {
						if exact[sid] > ub {
							t.Fatalf("%s %s eps=%g %v: segment %d has exact interest %v above the bound %v",
								cfg.Label(), o.name, eps, kws, sid, exact[sid], ub)
						}
					}
				}
			}
		}
	}
}

// TestShardServingLeavesMapMemosEmpty pins the second property the
// sharded tier's gain rests on: serving a shard — a /shard/query through
// remote.Server, which computes the static bound and then evaluates —
// holds one ε-plan per ε served and no other ε-dependent state. The map-layout ε-memos that
// duplicated the plan (and once cost every shard process a quarter of its
// resident memory and most of its warm-up) no longer exist; a second memo
// beside the plan must not come back.
func TestShardServingLeavesMapMemosEmpty(t *testing.T) {
	w, err := oracle.SeedConfig{Seed: 5, Density: 1}.BuildWorld()
	if err != nil {
		t.Fatal(err)
	}
	net, pois, _, _, err := w.Build()
	if err != nil {
		t.Fatal(err)
	}
	sw, err := shard.Partition(net, pois, shard.Config{Tiles: 4, Halo: 0.0012, CellSize: boundCell})
	if err != nil {
		t.Fatal(err)
	}
	var answered int
	for _, s := range sw.Shards {
		srv := remote.NewServer(remote.ShardData{
			ShardID: s.ID, Shards: len(sw.Shards), Halo: sw.Halo, CellSize: sw.CellSize,
			Index: s.Index, Streets: s.Streets, Segments: s.Segments,
		}, remote.ServerConfig{})
		for _, eps := range sweepEps {
			q := core.Query{Keywords: []string{"shop", "food"}, K: 3, Epsilon: eps}
			body, err := json.Marshal(remote.QueryRequest{Keywords: q.Keywords, K: q.K, Epsilon: q.Epsilon})
			if err != nil {
				t.Fatal(err)
			}
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/shard/query", bytes.NewReader(body)))
			if rec.Code != http.StatusOK {
				t.Fatalf("shard %d eps=%g: status %d: %s", s.ID, eps, rec.Code, rec.Body)
			}
			var resp remote.QueryResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatal(err)
			}
			// The bound rides on every answer: the same bits the index
			// computes, whether or not the shard went on to evaluate.
			if ub := mustBound(t, s.Index, q); math.Float64bits(resp.UB) != math.Float64bits(ub) {
				t.Errorf("shard %d eps=%g: answer carries ub %v, index says %v", s.ID, eps, resp.UB, ub)
			}
			answered += len(resp.Results)
		}
		if n := s.Index.PlanCount(); n != len(sweepEps) {
			t.Errorf("shard %d: %d ε-plans after serving %d ε values", s.ID, n, len(sweepEps))
		}
	}
	if answered == 0 {
		t.Fatal("no shard returned a street; the queries did no work")
	}
}
