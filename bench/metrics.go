package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the nearest-rank p-quantile (0 < p ≤ 1) of sorted
// values; 0 for an empty slice.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

// tailPerMille are the candidates of the percentile rule, ascending, in
// thousandths (so that "samples beyond" is integer arithmetic).
var tailPerMille = []int{500, 900, 950, 990, 999}

// minSamplesBeyond is how many samples must lie beyond a percentile for
// it to be reported: fewer and the value is one or two outliers.
const minSamplesBeyond = 10

// highestPercentile is the percentile rule: the highest candidate with
// at least minSamplesBeyond of the n samples beyond it, 0 when not even
// the median qualifies.
func highestPercentile(n int) float64 {
	best := 0.0
	for _, pm := range tailPerMille {
		if n*(1000-pm)/1000 >= minSamplesBeyond {
			best = float64(pm) / 1000
		}
	}
	return best
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func durationsToMicros(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = micros(d)
	}
	return out
}

func mean(v []float64) float64 {
	total := 0.0
	for _, x := range v {
		total += x
	}
	return ratio(total, float64(len(v)))
}

// ratio is a/b with 0 for an empty denominator: a ratio of counters that
// saw no traffic is reported as 0, not NaN (NaN does not survive JSON).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
