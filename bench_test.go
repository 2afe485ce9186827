package soi

// One benchmark per table and figure of the paper's evaluation section.
// Each benchmark regenerates its artifact through internal/experiments —
// the same code path cmd/soibench uses to print the full-scale tables.
//
// Benchmarks default to a reduced dataset scale so `go test -bench=.`
// completes quickly; set SOI_BENCH_SCALE=1 to run at the paper's Table 1
// dataset sizes (cmd/soibench does this by default).

import (
	"os"
	"strconv"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/diversify"
	"repro/internal/experiments"
)

func benchScale() float64 {
	if s := os.Getenv("SOI_BENCH_SCALE"); s != "" {
		if v, err := strconv.ParseFloat(s, 64); err == nil && v > 0 {
			return v
		}
	}
	return 0.05
}

var benchState struct {
	once   sync.Once
	cities []*experiments.City
	err    error
}

func benchCities(b *testing.B) []*experiments.City {
	b.Helper()
	benchState.once.Do(func() {
		var names []string
		for _, p := range datagen.Profiles() {
			names = append(names, p.Name)
		}
		benchState.cities, benchState.err = experiments.LoadCitiesNamed(names, benchScale())
	})
	if benchState.err != nil {
		b.Fatal(benchState.err)
	}
	return benchState.cities
}

// BenchmarkTable1DatasetStats regenerates Table 1 (dataset statistics).
func BenchmarkTable1DatasetStats(b *testing.B) {
	cities := benchCities(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := experiments.Table1(cities)
		if len(rows) != 3 {
			b.Fatal("wrong row count")
		}
	}
}

// BenchmarkTable2ShoppingRecall regenerates Table 2 (top-10 shopping
// streets in Berlin vs the two authoritative source lists).
func BenchmarkTable2ShoppingRecall(b *testing.B) {
	cities := benchCities(b)
	berlin := cities[1]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table2(berlin, 10)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.TopK) == 0 {
			b.Fatal("empty result")
		}
	}
}

// BenchmarkTable3MethodScores regenerates Table 3 (normalized objective
// scores of the nine description methods across the three cities).
func BenchmarkTable3MethodScores(b *testing.B) {
	cities := benchCities(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table3(cities, 3)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 9 {
			b.Fatal("wrong method count")
		}
	}
}

// BenchmarkTable4RelevantPOIs regenerates Table 4 (relevant POIs per |Ψ|).
func BenchmarkTable4RelevantPOIs(b *testing.B) {
	cities := benchCities(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := experiments.Table4(cities)
		if len(rows) != 3 {
			b.Fatal("wrong row count")
		}
	}
}

// BenchmarkFigure4SOIvsBL regenerates Figure 4: the SOI vs BL parameter
// sweeps (varying k and |Ψ|), one sub-benchmark per city.
func BenchmarkFigure4SOIvsBL(b *testing.B) {
	for _, c := range benchCities(b) {
		c := c
		b.Run(c.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				panels, err := experiments.Figure4(c, 1)
				if err != nil {
					b.Fatal(err)
				}
				if len(panels) != 2 {
					b.Fatal("wrong panel count")
				}
			}
		})
	}
}

// BenchmarkFigure5Tradeoff regenerates Figure 5: the relevance–diversity
// trade-off curve over λ for the three cities.
func BenchmarkFigure5Tradeoff(b *testing.B) {
	cities := benchCities(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		curves, err := experiments.Figure5(cities, experiments.Figure6DefaultK)
		if err != nil {
			b.Fatal(err)
		}
		if len(curves) != 3 {
			b.Fatal("wrong curve count")
		}
	}
}

// BenchmarkFigure6DescribeSweeps regenerates Figure 6: ST_Rel+Div vs BL
// varying k, λ and w, one sub-benchmark per city.
func BenchmarkFigure6DescribeSweeps(b *testing.B) {
	for _, c := range benchCities(b) {
		c := c
		b.Run(c.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				panels, err := experiments.Figure6(c, 1)
				if err != nil {
					b.Fatal(err)
				}
				if len(panels) != 3 {
					b.Fatal("wrong panel count")
				}
			}
		})
	}
}

// --- micro-benchmarks of the two core queries and their baselines ---

// BenchmarkSOIQuery times a single SOI evaluation at the paper's default
// parameters (k=50, |Ψ|=3, ε=0.0005) per city.
func BenchmarkSOIQuery(b *testing.B) {
	benchIdentify(b, func(ix *core.Index, q core.Query) error {
		_, _, err := ix.SOI(q)
		return err
	})
}

// BenchmarkBaselineQuery times the exhaustive BL on the same workload.
func BenchmarkBaselineQuery(b *testing.B) {
	benchIdentify(b, func(ix *core.Index, q core.Query) error {
		_, _, err := ix.Baseline(q)
		return err
	})
}

func benchIdentify(b *testing.B, eval func(*core.Index, core.Query) error) {
	for _, c := range benchCities(b) {
		c := c
		b.Run(c.Name(), func(b *testing.B) {
			q := core.Query{
				Keywords: experiments.KeywordProgression[:3],
				K:        50,
				Epsilon:  experiments.Epsilon,
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := eval(c.Index, q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDescribeSTRelDiv times one ST_Rel+Div summary construction at
// the Figure 6 defaults (k=20, λ=w=0.5) per city.
func BenchmarkDescribeSTRelDiv(b *testing.B) {
	benchDescribe(b, func(ctx *diversify.Context, p diversify.Params) error {
		_, err := ctx.STRelDiv(p)
		return err
	})
}

// BenchmarkDescribeBaseline times the exhaustive greedy BL on the same
// workload.
func BenchmarkDescribeBaseline(b *testing.B) {
	benchDescribe(b, func(ctx *diversify.Context, p diversify.Params) error {
		_, err := ctx.Baseline(p)
		return err
	})
}

func benchDescribe(b *testing.B, eval func(*diversify.Context, diversify.Params) error) {
	for _, c := range benchCities(b) {
		c := c
		b.Run(c.Name(), func(b *testing.B) {
			ctx := photoStreetContext(b, c)
			p := diversify.Params{
				K:      experiments.Figure6DefaultK,
				Lambda: 0.5,
				W:      0.5,
				Rho:    experiments.Rho,
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := eval(ctx, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// photoStreetContext builds the diversification context of the city's
// photo street, the street Section 5's description experiments use.
func photoStreetContext(b *testing.B, c *experiments.City) *diversify.Context {
	b.Helper()
	st := c.Dataset.Network.StreetByName(c.Dataset.Truth.PhotoStreet)
	if st == nil {
		b.Fatalf("photo street %q missing in %s", c.Dataset.Truth.PhotoStreet, c.Name())
	}
	rs, maxD := diversify.ExtractStreetPhotos(c.Dataset.Network, st.ID, c.Dataset.Photos, experiments.Epsilon)
	ctx, err := diversify.NewContext(rs, diversify.FreqFromPhotos(c.Dataset.Dict, rs), maxD, experiments.Rho)
	if err != nil {
		b.Fatal(err)
	}
	return ctx
}

// BenchmarkAblationStrategy times the two SOI access strategies (the
// design-choice ablation of DESIGN.md) on the Berlin-like city.
func BenchmarkAblationStrategy(b *testing.B) {
	cities := benchCities(b)
	berlin := cities[1]
	q := core.Query{
		Keywords: experiments.KeywordProgression[:3],
		K:        50,
		Epsilon:  experiments.Epsilon,
	}
	for _, strat := range []core.Strategy{core.CostAware, core.Drain} {
		strat := strat
		b.Run(strat.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := berlin.Index.SOIWithStrategy(q, strat); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationAggregate times the street aggregation modes.
func BenchmarkAblationAggregate(b *testing.B) {
	cities := benchCities(b)
	berlin := cities[1]
	q := core.Query{Keywords: []string{"shop"}, K: 10, Epsilon: experiments.Epsilon}
	for _, agg := range []core.Aggregate{core.MaxSegment, core.MeanSegment, core.TotalDensity} {
		agg := agg
		b.Run(agg.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := berlin.Index.BaselineAggregate(q, agg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDescribeWarm times describes of the photo street of Berlin at
// scale 0.1 through Engine.DescribeStreet at fixed ε and ρ, after the
// street's first touch built its context. /answer cycles (k, λ, w) over
// the benchmark's 45-point grid, so every iteration after the first round
// is answered from the summary memo. /context moves λ by a hair on every
// iteration, so each is a (k, λ, w) the engine has never seen: Algorithm
// 2's greedy loop runs over the memoised context and nothing else. CI
// runs both for one iteration to print allocations per describe.
func BenchmarkDescribeWarm(b *testing.B) {
	ds, err := datagen.Generate(datagen.Scale(datagen.Berlin(), 0.1))
	if err != nil {
		b.Fatal(err)
	}
	var grid []SummaryParams
	for _, k := range memoGridK {
		for _, l := range memoGridLambda {
			for _, w := range memoGridW {
				grid = append(grid, SummaryParams{K: k, Lambda: l, W: w})
			}
		}
	}
	street := ds.Truth.PhotoStreet
	warm := func(b *testing.B) *Engine {
		eng, err := NewEngineFromCorpora(ds.Network, ds.POIs, ds.Photos, Config{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := eng.DescribeStreet(street, grid[0]); err != nil {
			b.Fatal(err)
		}
		return eng
	}
	run := func(b *testing.B, eng *Engine, params func(i int) SummaryParams) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.DescribeStreet(street, params(i)); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("answer", func(b *testing.B) {
		run(b, warm(b), func(i int) SummaryParams { return grid[i%len(grid)] })
	})
	// One engine and one count across every b.N the harness tries, so no
	// key ever repeats.
	eng, n := warm(b), 0
	b.Run("context", func(b *testing.B) {
		run(b, eng, func(int) SummaryParams {
			n++
			p := grid[n%len(grid)]
			p.Lambda += 1e-9 * float64(n)
			return p
		})
	})
}
