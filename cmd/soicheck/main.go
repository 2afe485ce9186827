// Command soicheck is the correctness gate of the repository: it sweeps a
// range of seeded deterministic worlds and asserts that every production
// evaluator — the exact baseline, Algorithm 1 under both access
// strategies, the shared-cache path, a snapshot-reloaded index, the
// spatially sharded scatter-gather coordinator (2/4/9 tiles) and the
// parallel engine — agrees with the brute-force oracle across a grid of
// (ε, k, |Ψ|, density) configurations, along with the metamorphic suite
// and the diversification cross-check.
//
// On divergence it shrinks the failing world to a minimal reproducing one,
// writes it as a GeoJSON repro file (with the diverging query attached as
// an annotation feature) and exits non-zero.
//
// Usage:
//
//	soicheck -seeds 0:200 -quick            # PR smoke slice
//	soicheck -seeds 0:500 -out ./repros     # nightly full matrix
//	soicheck -seeds 0:50 -interleaved       # live-ingest interleaved matrix
//	soicheck -seeds 0:50 -quick -remote     # + cross-process remote matrix
//	soicheck -seeds 0:50 -quick -routes -traj  # + trajectory-family differentials
//
// With -remote each differential world additionally runs the
// cross-process scatter-gather comparison: every shard of the partition
// is served by a real loopback HTTP server and gathered through the
// fault-tolerant remote client, which must stay bit-identical to the
// brute-force oracle at every tile count.
//
// With -interleaved each seed instead runs the interleaved differential
// mode: a writer streams half the world's POIs through the epoch-based
// ingest path, publishing and finally compacting, while concurrent
// query goroutines are cross-checked bit-exactly against the oracle at
// whichever epoch each answer was evaluated — see oracle.DiffInterleaved.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/geojson"
	"repro/internal/oracle"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// failure couples a divergence with the world that produced it.
type failure struct {
	cfg  oracle.SeedConfig
	div  oracle.Divergence
	repr string // path of the written repro, if any
}

func run(args []string, out io.Writer) int {
	log.SetFlags(0)
	log.SetPrefix("soicheck: ")
	fs := flag.NewFlagSet("soicheck", flag.ContinueOnError)
	var (
		seeds    = fs.String("seeds", "0:20", "seed range lo:hi (hi exclusive)")
		quick    = fs.Bool("quick", false, "quick mode: one density, a 3-query slice per seed")
		workers  = fs.Int("workers", 4, "seeds checked concurrently")
		outDir   = fs.String("out", ".", "directory for GeoJSON repro files")
		noShrink = fs.Bool("noshrink", false, "report divergences without shrinking a repro")
		budget   = fs.Int("shrink-budget", oracle.DefaultShrinkChecks, "max predicate evaluations per shrink")
		interl   = fs.Bool("interleaved", false, "run the interleaved live-ingest differential mode instead of the static matrix")
		remoteM  = fs.Bool("remote", false, "additionally cross-check the cross-process scatter-gather path (each shard behind a real loopback HTTP server)")
		routesM  = fs.Bool("routes", false, "additionally cross-check k-most-interesting-routes search against the exhaustive path-enumeration oracle")
		trajM    = fs.Bool("traj", false, "additionally cross-check trajectory map-matching and trajectory-aware SOI against the full-scan oracle")
		rounds   = fs.Int("rounds", 0, "with -interleaved: publish rounds per seed (0 = default)")
		qworkers = fs.Int("query-workers", 0, "with -interleaved: concurrent query goroutines per seed (0 = default)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	lo, hi, err := parseRange(*seeds)
	if err != nil {
		log.Print(err)
		return 2
	}
	if *workers < 1 {
		log.Printf("invalid -workers %d", *workers)
		return 2
	}

	type job struct{ seed int64 }
	jobs := make(chan job)
	var (
		mu       sync.Mutex
		failures []failure
		fatalErr error
		configs  int
		queries  int
	)
	var wg sync.WaitGroup
	for w := 0; w < *workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				for _, cfg := range oracle.MatrixConfigs(j.seed, *quick) {
					var divs []oracle.Divergence
					var err error
					checked := len(cfg.Queries)
					if *interl {
						var rep oracle.InterleaveReport
						divs, rep, err = oracle.DiffInterleaved(cfg, oracle.InterleaveOptions{
							Rounds:       *rounds,
							QueryWorkers: *qworkers,
						})
						checked = rep.Answers
					} else {
						divs, err = oracle.CheckConfig(cfg, oracle.Options{Remote: *remoteM, Routes: *routesM, Traj: *trajM})
					}
					mu.Lock()
					configs++
					queries += checked
					if err != nil && fatalErr == nil {
						fatalErr = fmt.Errorf("%s: %w", cfg.Label(), err)
					}
					for _, d := range divs {
						failures = append(failures, failure{cfg: cfg, div: d})
					}
					mu.Unlock()
				}
			}
		}()
	}
	for s := lo; s < hi; s++ {
		jobs <- job{seed: s}
	}
	close(jobs)
	wg.Wait()

	if fatalErr != nil {
		log.Print(fatalErr)
		return 2
	}
	if len(failures) == 0 {
		fmt.Fprintf(out, "soicheck: OK — %d seeds, %d configs, %d queries, 0 divergences\n",
			hi-lo, configs, queries)
		return 0
	}

	for i := range failures {
		f := &failures[i]
		fmt.Fprintf(out, "soicheck: DIVERGENCE %s: %s\n", f.cfg.Label(), f.div)
		if *noShrink || strings.HasPrefix(f.div.Impl, "ingest/") {
			// Interleaved divergences depend on concurrent schedules; the
			// deterministic shrinker cannot re-detect them, so report only.
			continue
		}
		path, err := writeRepro(*outDir, f.cfg, f.div, *budget)
		if err != nil {
			log.Printf("writing repro for seed %d: %v", f.cfg.Seed, err)
			continue
		}
		f.repr = path
		fmt.Fprintf(out, "soicheck: repro written to %s\n", path)
	}
	fmt.Fprintf(out, "soicheck: FAIL — %d divergences across %d seeds\n", len(failures), hi-lo)
	return 1
}

// writeRepro shrinks the failing world to a minimal one that still shows
// a divergence for the failing query (or check family) and writes it as
// GeoJSON with the query attached as an annotation feature.
func writeRepro(dir string, cfg oracle.SeedConfig, div oracle.Divergence, budget int) (string, error) {
	w, err := cfg.BuildWorld()
	if err != nil {
		return "", err
	}
	pred := reproPredicate(cfg, div)
	if pred(w) {
		w = oracle.Shrink(w, pred, budget)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("soicheck-repro-seed%d.geojson", cfg.Seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	note := geojson.Feature{
		Type:     "Feature",
		Geometry: geojson.Geometry{Type: "Point", Coordinates: []float64{0, 0}},
		Properties: map[string]interface{}{
			"kind":     "soicheck-divergence",
			"impl":     div.Impl,
			"cell":     div.CellSize,
			"keywords": strings.Join(div.Query.Keywords, ","),
			"k":        div.Query.K,
			"epsilon":  div.Query.Epsilon,
			"detail":   div.Detail,
			"config":   cfg.Label(),
		},
	}
	if err := w.WriteGeoJSON(f, note); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// reproPredicate re-detects the divergence class on candidate worlds:
// differential divergences re-run the (cheapest sufficient) differential
// matrix on the one failing query; metamorphic and summary divergences
// re-run their suite.
func reproPredicate(cfg oracle.SeedConfig, div oracle.Divergence) oracle.Predicate {
	switch {
	case strings.HasPrefix(div.Impl, "metamorphic/"):
		return func(w oracle.World) bool {
			divs, err := oracle.Metamorphic(w, focusQueries(cfg, div), oracle.Options{})
			return err == nil && len(divs) > 0
		}
	case strings.HasPrefix(div.Impl, "diversify/"):
		return func(w oracle.World) bool {
			divs, err := oracle.CheckSummary(w, oracle.SummaryParams)
			return err == nil && len(divs) > 0
		}
	case strings.HasPrefix(div.Impl, "routes/"), strings.HasPrefix(div.Impl, "traj/"):
		// Trajectory-family divergences re-run DiffTraj with only the
		// failing family enabled; the cases re-derive from the seed, so
		// they stay comparable as the shrinker removes world elements
		// (traces shrink like any other removable element).
		opt := oracle.Options{
			Routes:    strings.HasPrefix(div.Impl, "routes/"),
			Traj:      strings.HasPrefix(div.Impl, "traj/"),
			CellSizes: cellFocus(div),
		}
		return func(w oracle.World) bool {
			divs, err := oracle.DiffTraj(w, cfg.Seed, opt)
			return err == nil && len(divs) > 0
		}
	default:
		opt := oracle.Options{
			SkipEngine: !strings.HasPrefix(div.Impl, "engine/"),
			SkipShards: !strings.HasPrefix(div.Impl, "shard/"),
			Remote:     strings.HasPrefix(div.Impl, "remote/"),
			CellSizes:  cellFocus(div),
		}
		if strings.HasPrefix(div.Impl, "shard/") {
			var tiles int
			if _, err := fmt.Sscanf(div.Impl, "shard/%d", &tiles); err == nil && tiles > 0 {
				opt.ShardCounts = []int{tiles}
			}
		}
		if strings.HasPrefix(div.Impl, "remote/") {
			var tiles int
			if _, err := fmt.Sscanf(div.Impl, "remote/%d", &tiles); err == nil && tiles > 0 {
				opt.ShardCounts = []int{tiles}
			}
		}
		return func(w oracle.World) bool {
			divs, err := oracle.DiffWorld(w, focusQueries(cfg, div), opt)
			return err == nil && len(divs) > 0
		}
	}
}

// focusQueries narrows the re-check to the diverging query when the
// divergence names one, keeping shrink predicates cheap.
func focusQueries(cfg oracle.SeedConfig, div oracle.Divergence) []core.Query {
	if len(div.Query.Keywords) > 0 {
		return []core.Query{div.Query}
	}
	return cfg.Queries
}

func cellFocus(div oracle.Divergence) []float64 {
	if div.CellSize > 0 {
		return []float64{div.CellSize}
	}
	return nil
}

func parseRange(s string) (lo, hi int64, err error) {
	if _, err := fmt.Sscanf(s, "%d:%d", &lo, &hi); err != nil {
		return 0, 0, fmt.Errorf("invalid -seeds %q (want lo:hi)", s)
	}
	if lo < 0 || hi <= lo {
		return 0, 0, fmt.Errorf("invalid -seeds range %q (want 0 ≤ lo < hi)", s)
	}
	return lo, hi, nil
}
