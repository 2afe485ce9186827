// Command soibench regenerates the tables and figures of the paper's
// evaluation section (Section 5) over the synthetic cities.
//
// Run everything at full dataset scale (the Table 1 sizes):
//
//	soibench -exp all
//
// Run one artifact at a reduced scale for a quick look:
//
//	soibench -exp fig4 -scale 0.1 -cities london
//
// Measure the parallel engine and capture its observability snapshot —
// pruning counters, cache traffic, latency quantiles — alongside
// throughput:
//
//	soibench -parallel 8 -queries 150 -stats
//	soibench -stats -queries 50 -statsout BENCH_stats.json
//
// The -stats text output is deterministic in layout (sorted keys, fixed
// float formatting), and -statsout writes the same snapshot as JSON for
// trend tracking.
//
// Benchmark the sharded scatter-gather coordinator against the single
// slab index (bit-identity verified before timing; see internal/shard),
// optionally with a multi-tenant interleaved workload:
//
//	soibench -json BENCH_2.json -shards 4 -queries 150
//	soibench -json BENCH_2.json -shards 4 -tenants 3 -scale 0.1
//
// Benchmark the cross-process scatter-gather path: the same workload
// gathered by the fault-tolerant remote client from shards behind real
// loopback HTTP servers (bit-identity and zero degradation verified
// before timing; the client's retry/hedge/breaker counters land in the
// artifact):
//
//	soibench -json BENCH_3.json -shards 4 -remote -queries 60 -scale 0.02
//
// Benchmark the epoch-based ingest path: the same read workload
// quiescent and then live, while a writer streams POIs and publishes an
// epoch per batch:
//
//	soibench -json BENCH_ingest.json -ingest -scale 0.1 -writes 2000 -write-batch 100
//
// Benchmark the trajectory query family — the k-most-interesting-routes
// search and the trajectory-aware SOI pipeline (bit-identity to the
// exhaustive oracle is enforced separately by soicheck -routes -traj):
//
//	soibench -json BENCH_routes.json -routes -queries 40 -scale 0.05
//	soibench -json BENCH_traj.json -traj -queries 40 -scale 0.05
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/stats"
)

var validExps = []string{"table1", "table2", "table3", "table4", "fig4", "fig5", "fig6", "ablation", "weighted", "lcmsr", "all"}

func main() {
	log.SetFlags(0)
	log.SetPrefix("soibench: ")
	var (
		exp      = flag.String("exp", "all", "experiment: "+strings.Join(validExps, ", "))
		scale    = flag.Float64("scale", 1.0, "dataset volume scale factor")
		trials   = flag.Int("trials", 3, "timing repetitions per measurement (median reported)")
		cities   = flag.String("cities", "london,berlin,vienna", "comma-separated subset of cities")
		parallel = flag.Int("parallel", 0, "run the parallel query throughput benchmark with N workers and exit")
		queries  = flag.Int("queries", 150, "workload size per city for -parallel and -stats")
		seed     = flag.Int64("seed", 1, "workload shuffle seed for -parallel/-stats runs, printed for reproducibility (0 keeps enumeration order)")
		withStat = flag.Bool("stats", false, "run the workload through an instrumented engine and print the observability snapshot")
		statsOut = flag.String("statsout", "", "write the -stats snapshot as JSON to this file (implies -stats)")
		timeout  = flag.Duration("timeout", 0, "overall wall-clock budget for a -parallel/-stats run; a run cut short exits non-zero")
		deadline = flag.Duration("deadline", 0, "per-query evaluation deadline for -parallel/-stats runs (0 = none)")
		jsonOut  = flag.String("json", "", "with -shards, -ingest, -routes or -traj: write that benchmark's schema-validated BENCH artifact to this file, then exit")
		shards   = flag.Int("shards", 0, "with -json: benchmark the sharded scatter-gather coordinator at this shard count (≥ 2) against the single slab index")
		tenantsN = flag.Int("tenants", 1, "with -shards: interleave this many per-tenant seeded workloads round-robin (multi-tenant arrival order)")
		remoteB  = flag.Bool("remote", false, "with -json and -shards: benchmark the cross-process scatter-gather path (shards behind loopback HTTP servers, gathered by the fault-tolerant remote client) against the single slab index")
		ingestB  = flag.Bool("ingest", false, "with -json: run the mixed read/write ingest benchmark (quiescent vs live reads while a writer publishes epochs)")
		routesB  = flag.Bool("routes", false, "with -json: benchmark the k-most-interesting-routes search (internal/traj)")
		trajB    = flag.Bool("traj", false, "with -json: benchmark the trajectory-aware SOI pipeline (map-matching + corridor ranking)")
		writesN  = flag.Int("writes", 2000, "with -ingest: POIs the writer streams during the mixed pass")
		writeBat = flag.Int("write-batch", 100, "with -ingest: POIs appended per publish")
	)
	flag.Parse()

	if *shards != 0 || *tenantsN != 1 {
		switch {
		case *shards < 0:
			log.Fatalf("-shards must be non-negative, got %d", *shards)
		case *shards == 1:
			log.Fatalf("-shards needs at least 2 shards to compare against the single index, got 1")
		case *tenantsN < 1:
			log.Fatalf("-tenants needs at least one tenant workload, got %d", *tenantsN)
		case *shards == 0 && *tenantsN > 1:
			log.Fatalf("-tenants %d needs -shards: per-tenant workloads only exist for the sharded benchmark", *tenantsN)
		case *jsonOut == "":
			log.Fatalf("-shards requires -json OUT: the sharded benchmark only emits the BENCH artifact")
		case *parallel != 0 || *withStat || *statsOut != "":
			log.Fatalf("-shards is mutually exclusive with -parallel and -stats")
		}
	}

	if *remoteB {
		switch {
		case *jsonOut == "":
			log.Fatalf("-remote requires -json OUT: the remote benchmark only emits the BENCH artifact")
		case *shards < 2:
			log.Fatalf("-remote needs -shards ≥ 2 to partition the world, got %d", *shards)
		case *tenantsN != 1:
			log.Fatalf("-remote is mutually exclusive with -tenants")
		case *ingestB:
			log.Fatalf("-remote is mutually exclusive with -ingest")
		}
	}

	if *ingestB {
		switch {
		case *jsonOut == "":
			log.Fatalf("-ingest requires -json OUT: the ingest benchmark only emits the BENCH artifact")
		case *shards != 0 || *tenantsN != 1:
			log.Fatalf("-ingest is mutually exclusive with -shards and -tenants")
		case *parallel != 0 || *withStat || *statsOut != "":
			log.Fatalf("-ingest is mutually exclusive with -parallel and -stats")
		case *writesN <= 0 || *writeBat <= 0:
			log.Fatalf("-writes and -write-batch must be positive, got %d / %d", *writesN, *writeBat)
		}
	}

	if *routesB || *trajB {
		switch {
		case *jsonOut == "":
			log.Fatalf("-routes and -traj require -json OUT: the trajectory benchmarks only emit the BENCH artifact")
		case *routesB && *trajB:
			log.Fatalf("-routes and -traj are mutually exclusive: each writes its own artifact")
		case *shards != 0 || *tenantsN != 1 || *remoteB || *ingestB:
			log.Fatalf("-routes/-traj are mutually exclusive with -shards, -tenants, -remote and -ingest")
		case *parallel != 0 || *withStat || *statsOut != "":
			log.Fatalf("-routes/-traj are mutually exclusive with -parallel and -stats")
		}
	}

	if *jsonOut != "" {
		if *queries <= 0 {
			log.Fatalf("-json needs a positive -queries workload size, got %d", *queries)
		}
		if *routesB {
			if err := runRoutesBench(*cities, *scale, *queries, *seed, *jsonOut); err != nil {
				log.Fatal(err)
			}
			return
		}
		if *trajB {
			if err := runTrajBench(*cities, *scale, *queries, *seed, *jsonOut); err != nil {
				log.Fatal(err)
			}
			return
		}
		if *ingestB {
			if err := runIngestBench(*cities, *scale, *queries, *seed, *writesN, *writeBat, *jsonOut); err != nil {
				log.Fatal(err)
			}
			return
		}
		if *remoteB {
			if err := runRemoteBench(*cities, *scale, *queries, *seed, *shards, *jsonOut); err != nil {
				log.Fatal(err)
			}
			return
		}
		if *shards >= 2 {
			if err := runShardBench(*cities, *scale, *queries, *seed, *shards, *tenantsN, *jsonOut); err != nil {
				log.Fatal(err)
			}
			return
		}
		log.Fatalf("-json needs one of -shards, -ingest, -routes or -traj to pick the benchmark it records")
	}

	if *parallel < 0 {
		log.Fatalf("-parallel needs a positive worker count, got %d", *parallel)
	}
	if *timeout < 0 || *deadline < 0 {
		log.Fatalf("-timeout and -deadline must be non-negative, got %v / %v", *timeout, *deadline)
	}
	if *statsOut != "" {
		*withStat = true
	}
	if *parallel > 0 || *withStat {
		if *queries <= 0 {
			log.Fatalf("-parallel and -stats need a positive -queries workload size, got %d", *queries)
		}
		ctx := context.Background()
		if *timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, *timeout)
			defer cancel()
		}
		if err := runParallel(ctx, *cities, *scale, *parallel, *queries, *seed, *withStat, *statsOut, *deadline); err != nil {
			if errors.Is(err, context.DeadlineExceeded) {
				log.Fatalf("run cut short by -timeout %v: %v", *timeout, err)
			}
			log.Fatal(err)
		}
		return
	}

	want := map[string]bool{}
	for _, e := range strings.Split(*exp, ",") {
		e = strings.TrimSpace(strings.ToLower(e))
		ok := false
		for _, v := range validExps {
			if e == v {
				ok = true
			}
		}
		if !ok {
			log.Fatalf("unknown experiment %q (want one of %s)", e, strings.Join(validExps, ", "))
		}
		want[e] = true
	}
	all := want["all"]
	out := os.Stdout

	start := time.Now()
	fmt.Fprintf(out, "Loading cities (scale %g)...\n", *scale)
	citiesList, err := loadSelected(*cities, *scale)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(out, "Loaded %d cities in %v.\n\n", len(citiesList), time.Since(start).Round(time.Millisecond))

	if all || want["table1"] {
		experiments.PrintTable1(out, experiments.Table1(citiesList))
		fmt.Fprintln(out)
	}
	if all || want["table2"] {
		for _, c := range citiesList {
			res, err := experiments.Table2(c, 10)
			if err != nil {
				log.Fatal(err)
			}
			experiments.PrintTable2(out, res)
			fmt.Fprintln(out)
		}
	}
	if all || want["table3"] {
		rows, err := experiments.Table3(citiesList, 3)
		if err != nil {
			log.Fatal(err)
		}
		experiments.PrintTable3(out, citiesList, rows)
		fmt.Fprintln(out)
	}
	if all || want["table4"] {
		experiments.PrintTable4(out, experiments.Table4(citiesList))
		fmt.Fprintln(out)
	}
	if all || want["fig4"] {
		for _, c := range citiesList {
			panels, err := experiments.Figure4(c, *trials)
			if err != nil {
				log.Fatal(err)
			}
			for _, p := range panels {
				experiments.PrintFigure4(out, p)
				fmt.Fprintln(out)
			}
		}
	}
	if all || want["fig5"] {
		curves, err := experiments.Figure5(citiesList, experiments.Figure6DefaultK)
		if err != nil {
			log.Fatal(err)
		}
		experiments.PrintFigure5(out, curves)
		fmt.Fprintln(out)
	}
	if all || want["fig6"] {
		for _, c := range citiesList {
			panels, err := experiments.Figure6(c, *trials)
			if err != nil {
				log.Fatal(err)
			}
			for _, p := range panels {
				experiments.PrintFigure6(out, p)
				fmt.Fprintln(out)
			}
		}
	}
	if all || want["weighted"] {
		for _, c := range citiesList {
			res, err := experiments.WeightedTable2(c, 10)
			if err != nil {
				log.Fatal(err)
			}
			experiments.PrintWeightedTable2(out, res)
			fmt.Fprintln(out)
		}
	}
	if all || want["lcmsr"] {
		for _, c := range citiesList {
			res, err := experiments.LCMSRCompare(c, 10)
			if err != nil {
				log.Fatal(err)
			}
			experiments.PrintLCMSR(out, res)
			fmt.Fprintln(out)
		}
	}
	if all || want["ablation"] {
		for _, c := range citiesList {
			rows, err := experiments.AblationStrategy(c, *trials)
			if err != nil {
				log.Fatal(err)
			}
			experiments.PrintAblationStrategy(out, rows)
			fmt.Fprintln(out)
			agg, err := experiments.AblationAggregate(c, 10)
			if err != nil {
				log.Fatal(err)
			}
			experiments.PrintAblationAggregate(out, agg)
			fmt.Fprintln(out)
			cs, err := experiments.AblationCellSize(c, experiments.DefaultCellSizes, *trials)
			if err != nil {
				log.Fatal(err)
			}
			experiments.PrintAblationCellSize(out, cs)
			fmt.Fprintln(out)
		}
	}
	fmt.Fprintf(out, "Done in %v.\n", time.Since(start).Round(time.Millisecond))
}

// runParallel measures the parallel engine on the default synthetic
// workload, per city. With workers > 0 it benchmarks batch-executor
// throughput against the sequential loop; with withStats it attaches an
// observability recorder and prints each city's snapshot (sorted keys,
// fixed float formatting, so the layout is golden-file stable). A
// non-empty statsOut additionally writes every snapshot as one JSON
// document for trend tracking across runs. The context bounds the whole
// run (-timeout) and deadline bounds each query (-deadline); either cut
// surfaces as a context error and a non-zero exit.
func runParallel(ctx context.Context, cities string, scale float64, workers, queries int, seed int64, withStats bool, statsOut string, deadline time.Duration) error {
	out := os.Stdout
	start := time.Now()
	fmt.Fprintf(out, "Loading cities (scale %g)...\n", scale)
	citiesList, err := loadSelected(cities, scale)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "Loaded %d cities in %v.\n", len(citiesList), time.Since(start).Round(time.Millisecond))
	// The workload RNG is seeded explicitly and the seed always printed,
	// so any run — including one with a hand-picked seed — can be
	// reproduced exactly from its own output.
	fmt.Fprintf(out, "Workload seed %d (rerun with -seed %d to reproduce).\n\n", seed, seed)
	artifact := statsArtifact{Scale: scale, Workers: workers, Queries: queries, Seed: seed, Cities: map[string]stats.Snapshot{}}
	for _, c := range citiesList {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("before %s: %w", c.Name(), err)
		}
		var rec *stats.Recorder
		if withStats {
			rec = stats.NewRecorder()
		}
		if workers > 0 {
			res, err := experiments.ParallelBenchSeeded(ctx, c, workers, queries, seed, rec, deadline)
			if err != nil {
				return err
			}
			experiments.PrintParallelBench(out, res)
			fmt.Fprintln(out)
			if !res.Identical {
				return fmt.Errorf("parallel results diverged from sequential on %s", res.City)
			}
		} else {
			// Stats-only run: evaluate the workload once through an
			// instrumented executor, without the sequential baseline.
			exec := engine.New(c.Index, engine.Config{CacheSize: -1, Recorder: rec, QueryTimeout: deadline})
			for i, r := range exec.BatchCtx(ctx, experiments.ParallelWorkloadSeeded(queries, seed)) {
				if r.Err != nil {
					return fmt.Errorf("stats query %d on %s: %w", i, c.Name(), r.Err)
				}
			}
		}
		if withStats {
			snap := rec.Snapshot()
			artifact.Cities[c.Name()] = snap
			fmt.Fprintf(out, "Engine stats snapshot — %s (%d queries)\n", c.Name(), queries)
			if err := snap.WriteText(out); err != nil {
				return err
			}
			fmt.Fprintln(out)
		}
	}
	if statsOut != "" {
		if err := writeStatsArtifact(statsOut, artifact); err != nil {
			return err
		}
		fmt.Fprintf(out, "Wrote stats snapshot to %s.\n", statsOut)
	}
	fmt.Fprintf(out, "Done in %v.\n", time.Since(start).Round(time.Millisecond))
	return nil
}

// statsArtifact is the -statsout JSON document: one observability
// snapshot per city plus the workload parameters that produced it.
type statsArtifact struct {
	Scale   float64                   `json:"scale"`
	Workers int                       `json:"workers"`
	Queries int                       `json:"queries"`
	Seed    int64                     `json:"seed"`
	Cities  map[string]stats.Snapshot `json:"cities"`
}

func writeStatsArtifact(path string, a statsArtifact) error {
	buf, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

func loadSelected(names string, scale float64) ([]*experiments.City, error) {
	allCities, err := experiments.LoadCitiesNamed(strings.Split(names, ","), scale)
	if err != nil {
		return nil, err
	}
	return allCities, nil
}
