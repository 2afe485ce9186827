package stats

// This file holds the ranking-quality measures used by the effectiveness
// experiments (absorbed from the former internal/metrics): set-based
// recall at a cutoff (the paper's Table 2 reports recall@10),
// graded nDCG against a ground-truth ranking, and Kendall's tau between
// two rankings.

import (
	"math"
	"sort"
)

// RecallAtK returns |ranked[:k] ∩ relevant| / |relevant|; 0 when the
// relevant set is empty.
func RecallAtK(ranked []string, relevant []string, k int) float64 {
	if len(relevant) == 0 {
		return 0
	}
	top := topSet(ranked, k)
	hits := 0
	for _, r := range relevant {
		if top[r] {
			hits++
		}
	}
	return float64(hits) / float64(len(relevant))
}

// NDCGAtK computes normalized discounted cumulative gain at cutoff k
// against graded relevances (items absent from grades have gain 0). The
// ideal ordering is the grades sorted decreasingly.
func NDCGAtK(ranked []string, grades map[string]float64, k int) float64 {
	if k > len(ranked) {
		k = len(ranked)
	}
	var dcg float64
	for i := 0; i < k; i++ {
		if g, ok := grades[ranked[i]]; ok {
			dcg += g / math.Log2(float64(i)+2)
		}
	}
	ideal := make([]float64, 0, len(grades))
	for _, g := range grades {
		ideal = append(ideal, g)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(ideal)))
	var idcg float64
	for i := 0; i < len(ideal) && i < k; i++ {
		idcg += ideal[i] / math.Log2(float64(i)+2)
	}
	if idcg == 0 {
		return 0
	}
	return dcg / idcg
}

// KendallTau computes Kendall's rank correlation between two rankings
// over their common items: +1 for identical relative order, −1 for
// reversed. Returns 0 when fewer than two items are shared.
func KendallTau(a, b []string) float64 {
	posB := make(map[string]int, len(b))
	for i, s := range b {
		posB[s] = i
	}
	// Common items in a's order, mapped to their positions in b.
	var seq []int
	for _, s := range a {
		if p, ok := posB[s]; ok {
			seq = append(seq, p)
		}
	}
	n := len(seq)
	if n < 2 {
		return 0
	}
	concordant, discordant := 0, 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			switch {
			case seq[i] < seq[j]:
				concordant++
			case seq[i] > seq[j]:
				discordant++
			}
		}
	}
	pairs := n * (n - 1) / 2
	return float64(concordant-discordant) / float64(pairs)
}

func topSet(ranked []string, k int) map[string]bool {
	if k > len(ranked) {
		k = len(ranked)
	}
	out := make(map[string]bool, k)
	for _, s := range ranked[:k] {
		out[s] = true
	}
	return out
}
