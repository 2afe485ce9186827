package diversify_test

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/diversify"
	"repro/internal/network"
	"repro/internal/oracle"
	"repro/internal/photo"
)

// The describe golden pins Problem 2 end to end — photo association
// (PhotoIndex.StreetPhotos) and Algorithm 2 (STRelDiv) — on every street
// with at least two photos of the oracle matrix worlds of seeds 0..3,
// under the benchmark's whole (k, λ, w, ρ) grid. One line per street:
// the associated photo ids, the three work counters summed over the
// grid, and a hash of every summary's selection, objective bits and
// counters. A refactor of the grid, the bounds or the greedy loop must
// leave testdata/describe_counts.golden untouched; to re-derive it for a
// deliberate semantic change flip updateDescribeGolden and run the test.
const updateDescribeGolden = false

const (
	describeGoldenFile = "testdata/describe_counts.golden"
	describeEps        = 0.0005
	describeSeeds      = 4
)

// The benchmark's describe parameter grid (bench/gen.go).
var (
	describeK      = []int{3, 4, 5, 6, 8}
	describeLambda = []float64{0.3, 0.5, 0.7}
	describeW      = []float64{0.3, 0.5, 0.7}
	describeRho    = []float64{0.0001, 0.0002}
)

// forEachDescribeStreet calls fn for every street with at least two
// associated photos of every matrix world, in matrix and street order.
func forEachDescribeStreet(t *testing.T, fn func(label string, rs []photo.Photo, ctxs []*diversify.Context)) {
	t.Helper()
	for seed := int64(0); seed < describeSeeds; seed++ {
		for _, cfg := range oracle.MatrixConfigs(seed, false) {
			w, err := cfg.BuildWorld()
			if err != nil {
				t.Fatal(err)
			}
			net, _, photos, dict, err := w.Build()
			if err != nil {
				t.Fatal(err)
			}
			pix, err := diversify.NewPhotoIndex(photos, describeEps)
			if err != nil {
				t.Fatal(err)
			}
			for i := range net.Streets() {
				rs, maxD := pix.StreetPhotos(net, network.StreetID(i), describeEps)
				if len(rs) < 2 {
					continue
				}
				freq := diversify.FreqFromPhotos(dict, rs)
				ctxs := make([]*diversify.Context, len(describeRho))
				for j, rho := range describeRho {
					if ctxs[j], err = diversify.NewContext(rs, freq, maxD, rho); err != nil {
						t.Fatal(err)
					}
				}
				fn(fmt.Sprintf("%s street=%d", cfg.Label(), i), rs, ctxs)
			}
		}
	}
}

// forEachDescribeParams calls fn over the parameter grid, one context
// per ρ.
func forEachDescribeParams(ctxs []*diversify.Context, fn func(c *diversify.Context, p diversify.Params)) {
	for j, rho := range describeRho {
		for _, k := range describeK {
			for _, l := range describeLambda {
				for _, w := range describeW {
					fn(ctxs[j], diversify.Params{K: k, Lambda: l, W: w, Rho: rho})
				}
			}
		}
	}
}

func TestGoldenDescribeCounts(t *testing.T) {
	var got []string
	forEachDescribeStreet(t, func(label string, rs []photo.Photo, ctxs []*diversify.Context) {
		ids := make([]string, len(rs))
		for i := range rs {
			ids[i] = fmt.Sprint(rs[i].ID)
		}
		var examined, pruned, evaluated int
		h := fnv.New64a()
		forEachDescribeParams(ctxs, func(c *diversify.Context, p diversify.Params) {
			res, err := c.STRelDiv(p)
			if err != nil {
				t.Fatalf("%s %+v: %v", label, p, err)
			}
			st := res.Stats
			examined += st.CellsExamined
			pruned += st.CellsPruned
			evaluated += st.PhotosEvaluated
			fmt.Fprintf(h, "%v %x %d %d %d\n", res.Selected, math.Float64bits(res.Objective),
				st.CellsExamined, st.CellsPruned, st.PhotosEvaluated)
		})
		got = append(got, fmt.Sprintf("%s photos=%s examined=%d pruned=%d evaluated=%d summaries=%016x",
			label, strings.Join(ids, ","), examined, pruned, evaluated, h.Sum64()))
	})

	if updateDescribeGolden {
		if err := os.WriteFile(describeGoldenFile, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("wrote %d lines to %s; flip updateDescribeGolden back", len(got), describeGoldenFile)
	}
	f, err := os.Open(describeGoldenFile)
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
		t.Fatalf("%d described streets, golden has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("describe drifted:\n got %s\nwant %s", got[i], want[i])
		}
	}
}

// TestDescribeMatchesExactGreedy extends what oracle.DiffSummary checks on
// one street per world to every golden street and parameter combination:
// the grid-pruned construction must pick the photos the exact greedy
// baseline picks, in the same order, with the same objective bits.
func TestDescribeMatchesExactGreedy(t *testing.T) {
	forEachDescribeStreet(t, func(label string, _ []photo.Photo, ctxs []*diversify.Context) {
		forEachDescribeParams(ctxs, func(c *diversify.Context, p diversify.Params) {
			pruned, err := c.STRelDiv(p)
			if err != nil {
				t.Fatalf("%s %+v: %v", label, p, err)
			}
			exact, err := c.Baseline(p)
			if err != nil {
				t.Fatalf("%s %+v: %v", label, p, err)
			}
			if fmt.Sprint(pruned.Selected) != fmt.Sprint(exact.Selected) ||
				math.Float64bits(pruned.Objective) != math.Float64bits(exact.Objective) {
				t.Errorf("%s %+v: STRelDiv %v F=%v, exact greedy %v F=%v",
					label, p, pruned.Selected, pruned.Objective, exact.Selected, exact.Objective)
			}
		})
	})
}
