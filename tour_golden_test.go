package soi

import (
	"bufio"
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/network"
	"repro/internal/oracle"
	"repro/internal/traj"
)

// The tour golden pins the paper's Section 6 extension end to end — the
// k-SOI answer, the walking graph's connector radius, the greedy
// interest-per-detour planner and its shortest paths — on the oracle
// matrix worlds of seeds 0..3 and on Berlin 0.1, under a (keywords, k,
// budget) grid. One line per tour: the bits of Length and Interest, every
// stop as street id / interest bits / walk bits / FNV-1a of its approach
// vertex sequence, and the Unreached list. A refactor of the graph or of
// the shortest-path search must leave testdata/tours.golden untouched,
// except the approach hash of a stop whose shortest path is exactly tied
// (its walk bits then stay as they are). To re-derive the file for a
// deliberate semantic change flip updateToursGolden and run the test.
const updateToursGolden = false

const (
	toursGoldenFile = "testdata/tours.golden"
	toursEps        = 0.0005
	toursSeeds      = 4
)

var (
	toursKeywords      = [][]string{{"shop"}, {"food"}, {"shop", "food"}, {"museum", "park", "hotel"}}
	toursK             = []int{3, 10, 25}
	toursMatrixBudgets = []float64{0.01, 0.03, 0.1}
	toursBerlinBudgets = []float64{0.02, 0.05, 0.2, 1}
)

// goldenPlan runs the planner the way RecommendTourCtx does — over the
// engine's tour graph — and returns the planner's own answer, approach
// paths included.
func goldenPlan(e *Engine, res []core.StreetResult, budget float64) (traj.Tour, error) {
	cands := make([]traj.Candidate, len(res))
	for i, r := range res {
		cands[i] = traj.Candidate{Street: r.Street, Interest: r.Interest}
	}
	return traj.Recommend(context.Background(), e.tourGraph(), cands, budget)
}

// goldenTours appends one line per (keywords, k, budget) point of the
// grid over one engine, checking on the way that the facade reports what
// the planner planned.
func goldenTours(t *testing.T, label string, e *Engine, budgets []float64, got []string) []string {
	t.Helper()
	for _, kws := range toursKeywords {
		for _, k := range toursK {
			for _, budget := range budgets {
				q := Query{Keywords: kws, K: k, Epsilon: toursEps}
				at := fmt.Sprintf("%s kw=%s k=%d budget=%g", label, strings.Join(kws, ","), k, budget)
				tour, err := e.RecommendTourCtx(context.Background(), q, budget)
				if err != nil {
					got = append(got, at+" err="+err.Error())
					continue
				}
				er := e.exec.DoCtx(context.Background(), core.Query{Keywords: kws, K: k, Epsilon: toursEps})
				if er.Err != nil {
					t.Fatalf("%s: %v", at, er.Err)
				}
				plan, err := goldenPlan(e, er.Streets, budget)
				if err != nil {
					t.Fatalf("%s: %v", at, err)
				}
				if len(plan.Stops) != len(tour.Stops) || len(plan.Unreached) != len(tour.Unreached) ||
					math.Float64bits(plan.Length) != math.Float64bits(tour.Length) ||
					math.Float64bits(plan.Interest) != math.Float64bits(tour.Interest) {
					t.Fatalf("%s: facade %+v, planner %+v", at, tour, plan)
				}
				var b strings.Builder
				fmt.Fprintf(&b, "%s length=%016x interest=%016x stops=", at, math.Float64bits(tour.Length), math.Float64bits(tour.Interest))
				for i, s := range plan.Stops {
					fs := tour.Stops[i]
					if fs.Street != e.net.Street(s.Street).Name || math.Float64bits(fs.Walk) != math.Float64bits(s.Approach.Length) ||
						math.Float64bits(fs.Interest) != math.Float64bits(s.Interest) {
						t.Fatalf("%s stop %d: facade %+v, planner %+v", at, i, fs, s)
					}
					fmt.Fprintf(&b, "%d/%016x/%016x/%016x,", s.Street, math.Float64bits(fs.Interest), math.Float64bits(fs.Walk), hashVertices(s.Approach.Vertices))
				}
				b.WriteString(" unreached=")
				for i, u := range plan.Unreached {
					if fu := tour.Unreached[i]; fu.Street != u.Name || math.Float64bits(fu.Interest) != math.Float64bits(u.Interest) {
						t.Fatalf("%s unreached %d: facade %+v, planner %+v", at, i, fu, u)
					}
					fmt.Fprintf(&b, "%d/%016x,", u.Street, math.Float64bits(u.Interest))
				}
				got = append(got, b.String())
			}
		}
	}
	return got
}

func hashVertices(vs []network.VertexID) uint64 {
	h := fnv.New64a()
	for _, v := range vs {
		h.Write([]byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)})
	}
	return h.Sum64()
}

func TestGoldenTours(t *testing.T) {
	var got []string
	for seed := int64(0); seed < toursSeeds; seed++ {
		for _, cfg := range oracle.MatrixConfigs(seed, false) {
			w, err := cfg.BuildWorld()
			if err != nil {
				t.Fatal(err)
			}
			net, pois, photos, _, err := w.Build()
			if err != nil {
				t.Fatal(err)
			}
			e, err := NewEngineFromCorpora(net, pois, photos, Config{})
			if err != nil {
				t.Fatal(err)
			}
			got = goldenTours(t, cfg.Label(), e, toursMatrixBudgets, got)
		}
	}
	ds, err := datagen.Generate(datagen.Scale(datagen.Berlin(), 0.1))
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngineFromCorpora(ds.Network, ds.POIs, ds.Photos, Config{})
	if err != nil {
		t.Fatal(err)
	}
	got = goldenTours(t, "berlin=0.1", e, toursBerlinBudgets, got)

	if updateToursGolden {
		if err := os.WriteFile(toursGoldenFile, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("wrote %d lines to %s; flip updateToursGolden back", len(got), toursGoldenFile)
	}
	f, err := os.Open(toursGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d tours, golden has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("tour drifted:\n got %s\nwant %s", got[i], want[i])
		}
	}
}
