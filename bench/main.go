// Command bench is the repository's benchmark: one load driver that
// measures the whole system from outside. For each workload it builds
// cmd/soibuild, cmd/soiserve and cmd/soishard from the checkout, spawns
// the real binaries on free loopback ports, drives them over HTTP with
// tracing off, checks the answers, and reports the end-to-end metrics
// of BENCHMARK.json. With -trace 1 it instead runs the workload's world
// in-process with spans recorded around each layer's public functions
// and reports the per-layer metrics.
//
//	bash bench/run.sh --workload ksoi_cold --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh -seed 1 -out run.json          # every workload, both modes
//	bash bench/run.sh -compare old.json new.json     # regression gate
//
// See README.md for the workloads, the metrics and how they interact.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(argv []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "run one workload and print its result as the last line (default: every workload, both modes)")
		seed    = fs.Int64("seed", 1, "seed of the request streams")
		seconds = fs.Float64("seconds", 10, "length of the measured phase of an end-to-end run")
		trace   = fs.Int("trace", 0, "with -workload: 0 measures end to end over HTTP, 1 runs the traced in-process pass")
		repo    = fs.String("repo", ".", "root of the checkout to build and measure")
		work    = fs.String("work", "", "directory for binaries, artifacts and logs (default: <repo>/.bench_build/run)")
		out     = fs.String("out", "", "append the run to this JSON file (input of -compare)")
		compare = fs.Bool("compare", false, "compare two -out files: bench -compare old.json new.json")
	)
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two files: old.json new.json")
			return 2
		}
		return runCompare(os.Stdout, *repo, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	selected := workloads
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		selected = []workload{w}
	}
	if *work == "" {
		*work = *repo + "/.bench_build/run"
	}

	// SIGINT/SIGTERM cancel the context; every wait below observes it,
	// and the deferred clean-up kills the children and removes the
	// artifacts on that path as on every other.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	e, err := newEnv(ctx, *repo, *work)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer e.close()

	measure := time.Duration(*seconds * float64(time.Second))
	doc := runDoc{Seed: *seed, Seconds: *seconds, Workloads: map[string]*workloadDoc{}}
	ok := true
	var last result
	for _, mode := range []int{0, 1} {
		if *name != "" && mode != *trace {
			continue
		}
		for _, w := range selected {
			var res result
			var obs *observations
			if mode == 0 {
				res, obs, err = runEndToEnd(ctx, e, w, *seed, measure)
			} else {
				res, obs, err = runTraced(ctx, e, w, *seed)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
				return 1
			}
			printResult(w, mode, res, obs)
			wd := doc.Workloads[w.name]
			if wd == nil {
				wd = &workloadDoc{}
				doc.Workloads[w.name] = wd
			}
			if mode == 0 {
				wd.EndToEnd = &res
			} else {
				wd.PerLayer = &res
			}
			ok = ok && res.Correct
			last = res
		}
	}
	if *out != "" {
		if err := appendRun(*out, doc); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	if *name != "" {
		line, err := json.Marshal(last)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		fmt.Printf("%s\n", line)
	} else {
		line, err := json.Marshal(doc)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		fmt.Printf("%s\n", line)
	}
	if !ok {
		fmt.Fprintln(os.Stderr, "bench: failed operations or answer mismatches; see the first failure above")
		return 1
	}
	return 0
}

// printResult writes one workload's metrics as a table: every metric by
// name with its unit, then the run's observations.
func printResult(w workload, mode int, res result, obs *observations) {
	title := "end to end, tracing off"
	if mode == 1 {
		title = "traced in-process run"
	}
	fmt.Printf("== %s (%s): attempted %d, failed %d\n", w.name, title, res.Attempted, res.Failed)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("  %-34s %16.4f %s\n", n, m.Value, m.Unit)
	}
	if obs != nil {
		for _, l := range obs.lines {
			fmt.Printf("  # %s\n", l)
		}
	}
}

// workloadDoc and runDoc are the -out file's shape: one runDoc per
// invocation, appended, so repeated runs of one file give -compare
// medians and a spread.
type workloadDoc struct {
	EndToEnd *result `json:"end_to_end,omitempty"`
	PerLayer *result `json:"per_layer,omitempty"`
}

type runDoc struct {
	Seed      int64                   `json:"seed"`
	Seconds   float64                 `json:"seconds"`
	Workloads map[string]*workloadDoc `json:"workloads"`
}

type runsFile struct {
	Runs []runDoc `json:"runs"`
}

func readRuns(path string) (runsFile, error) {
	var f runsFile
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

func appendRun(path string, doc runDoc) error {
	f, err := readRuns(path)
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	f.Runs = append(f.Runs, doc)
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
