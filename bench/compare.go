package main

import (
	"fmt"
	"io"
	"os"
)

// quartiles returns the first and third quartile of sorted values the
// way Python's statistics.quantiles(values, n=4) does (the exclusive
// method), so spreads computed here match the harness's.
func quartiles(sorted []float64) (q1, q3 float64) {
	n := len(sorted)
	if n < 2 {
		return sorted[0], sorted[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (sorted[j-1]*(4-delta) + sorted[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile range as a share of the median.
func spread(values []float64) float64 {
	s := sortedCopy(values)
	q1, q3 := quartiles(s)
	return ratio(q3-q1, quantile(s, 0.5))
}

// Verdicts of one compared (metric, workload) pair.
const (
	verdictBetter     = "better"
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// verdict applies the benchmark's rule: the new median may not be worse
// than the base median by more than the metric's bound. A pair inside
// the bound is "same" only if the base's own run-to-run spread is
// inside it too; otherwise the runs cannot tell and it is "unresolved".
func verdict(m specMetric, base, cur []float64) (baseMed, curMed float64, v string) {
	baseMed, curMed = median(base), median(cur)
	worsening := ratio(curMed-baseMed, baseMed)
	if m.Better == "higher" {
		worsening = -worsening
	}
	switch {
	case worsening > m.Bound:
		v = verdictWorse
	case worsening < -m.Bound:
		v = verdictBetter
	case spread(base) > m.Bound:
		v = verdictUnresolved
	default:
		v = verdictSame
	}
	return baseMed, curMed, v
}

// endToEndValues collects one metric of one workload across a file's
// runs.
func endToEndValues(f runsFile, workload, metric string) []float64 {
	var out []float64
	for _, r := range f.Runs {
		if wd := r.Workloads[workload]; wd != nil && wd.EndToEnd != nil {
			if m, ok := wd.EndToEnd.Metrics[metric]; ok {
				out = append(out, m.Value)
			}
		}
	}
	return out
}

// runCompare prints one row per (end-to-end metric, workload) present
// in both files and returns the exit code: 1 if any row is worse.
func runCompare(w io.Writer, repo, oldPath, newPath string) int {
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	sp, err := loadSpec(repo)
	if err != nil {
		return fail(err)
	}
	oldRuns, err := readRuns(oldPath)
	if err != nil {
		return fail(err)
	}
	newRuns, err := readRuns(newPath)
	if err != nil {
		return fail(err)
	}
	return compareRuns(w, sp, oldRuns, newRuns)
}

func compareRuns(w io.Writer, sp *spec, oldRuns, newRuns runsFile) int {
	fmt.Fprintf(w, "%-14s %-14s %14s %14s %8s %6s  %s\n", "workload", "metric", "base", "new", "new/base", "bound", "verdict")
	code, rows := 0, 0
	for _, wl := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			base, cur := endToEndValues(oldRuns, wl.Name, m.Name), endToEndValues(newRuns, wl.Name, m.Name)
			if len(base) == 0 || len(cur) == 0 {
				continue
			}
			rows++
			b, c, v := verdict(m, base, cur)
			if v == verdictWorse {
				code = 1
			}
			fmt.Fprintf(w, "%-14s %-14s %14.4f %14.4f %8.3f %6.2f  %s (%s is better; %d vs %d runs)\n",
				wl.Name, m.Name, b, c, ratio(c, b), m.Bound, v, m.Better, len(base), len(cur))
		}
	}
	if rows == 0 {
		fmt.Fprintln(w, "no (metric, workload) pair is present in both files")
		return 2
	}
	return code
}
