package diversify

import (
	"cmp"
	"math"
	"slices"
	"time"

	"repro/internal/stats"
)

// Stats records the work performed by one summary construction.
type Stats struct {
	Elapsed time.Duration
	// Iterations counts greedy MMR selection rounds (one per selected
	// photo).
	Iterations int
	// PhotosEvaluated counts exact mmr computations.
	PhotosEvaluated int
	// CellsExamined counts cells whose bounds were computed.
	CellsExamined int
	// CellsPruned counts cells discarded by the bound tests.
	CellsPruned int
}

// Record folds one summary construction into a shared recorder;
// candidates is |Rs|, the street's candidate photo pool size. A nil
// recorder is a no-op.
func (s Stats) Record(rec *stats.Recorder, candidates int) {
	if rec == nil {
		return
	}
	d := &rec.Diversify
	d.Summaries.Add(1)
	d.Iterations.Add(int64(s.Iterations))
	d.CandidatePhotos.Add(int64(candidates))
	d.PhotosEvaluated.Add(int64(s.PhotosEvaluated))
	d.CellsExamined.Add(int64(s.CellsExamined))
	d.CellsPruned.Add(int64(s.CellsPruned))
	d.SummaryNanos.Add(s.Elapsed.Nanoseconds())
}

// Result is a constructed photo summary.
type Result struct {
	// Selected holds local indices into the context's photo slice, in
	// selection order.
	Selected []int
	// Objective is F(Rk) of Eq. 2 under the query parameters.
	Objective float64
	Stats     Stats
}

// STRelDiv runs Algorithm 2: greedy MMR over the ρ/2 grid, using the
// per-cell bounds of Section 4.2.2 to prune photos in a filtering phase
// and a refinement phase per selected photo.
func (c *Context) STRelDiv(p Params) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	start := time.Now()
	var stats Stats

	// The answer for k > |Rs| is all of Rs; clamp before sizing anything
	// by a request-controlled k.
	k := min(p.K, len(c.photos))
	selected := make([]int, 0, k)
	isSelected := make([]bool, len(c.photos))
	numCells := c.slab.NumCells()
	// Per-cell count of still-selectable photos.
	remaining := make([]int, numCells)
	for ord := range remaining {
		remaining[ord] = len(c.members(ord))
	}
	// Per-cell accumulated diversity-bound sums over the selected set,
	// maintained incrementally as photos are selected.
	divLoSum := make([]float64, numCells)
	divHiSum := make([]float64, numCells)

	type cellBound struct {
		ord    int
		lo, hi float64
	}
	bounds := make([]cellBound, 0, numCells)
	for len(selected) < k {
		stats.Iterations++
		// Filtering phase: bound the mmr of every cell with candidates.
		bounds = bounds[:0]
		mmrMin := math.Inf(-1)
		for ord := 0; ord < numCells; ord++ {
			if remaining[ord] == 0 {
				continue
			}
			relLo, relHi := c.cellRelBounds(ord, p.W)
			lo := (1 - p.Lambda) * relLo
			hi := (1 - p.Lambda) * relHi
			if p.K > 1 && len(selected) > 0 {
				f := p.Lambda / float64(p.K-1)
				lo += f * divLoSum[ord]
				hi += f * divHiSum[ord]
			}
			stats.CellsExamined++
			bounds = append(bounds, cellBound{ord, lo, hi})
			if lo > mmrMin {
				mmrMin = lo
			}
		}
		// Discard cells that cannot contain the maximizer.
		cand := bounds[:0]
		for _, b := range bounds {
			if b.hi >= mmrMin {
				cand = append(cand, b)
			} else {
				stats.CellsPruned++
			}
		}
		// Refinement phase: visit candidate cells in decreasing upper
		// bound; stop when the next cell cannot beat the best exact value.
		slices.SortFunc(cand, func(a, b cellBound) int {
			if a.hi != b.hi {
				return cmp.Compare(b.hi, a.hi)
			}
			return cmp.Compare(a.ord, b.ord)
		})
		best, bestOrd := -1, -1
		bestVal := math.Inf(-1)
		for _, b := range cand {
			if best >= 0 && b.hi < bestVal {
				stats.CellsPruned++
				continue
			}
			for _, m := range c.members(b.ord) {
				i := int(m)
				if isSelected[i] {
					continue
				}
				v := c.MMR(i, selected, p)
				stats.PhotosEvaluated++
				if v > bestVal || (v == bestVal && i < best) {
					bestVal = v
					best, bestOrd = i, b.ord
				}
			}
		}
		if best < 0 {
			break // no selectable photo remains
		}
		selected = append(selected, best)
		isSelected[best] = true
		remaining[bestOrd]--
		// Fold the newly selected photo into the per-cell diversity sums.
		if p.K > 1 {
			for ord := 0; ord < numCells; ord++ {
				dl, dh := c.cellDivBounds(ord, best, p.W)
				divLoSum[ord] += dl
				divHiSum[ord] += dh
			}
		}
	}
	stats.Elapsed = time.Since(start)
	return Result{
		Selected:  selected,
		Objective: c.Objective(selected, p),
		Stats:     stats,
	}, nil
}

// spatialRelNaive computes Def. 4 by scanning every photo of Rs — the
// cost the paper's grid-less baseline pays per evaluation. It returns
// exactly the same value as the precomputed SpatialRel.
func (c *Context) spatialRelNaive(i int) float64 {
	cnt := 0
	for j := range c.photos {
		if c.photos[i].Loc.Dist(c.photos[j].Loc) <= c.rho {
			cnt++
		}
	}
	return float64(cnt) / float64(len(c.photos))
}

// mmrNaive evaluates Eq. 10 without any index assistance: the spatial
// relevance neighborhood count is recomputed by a full scan. Identical in
// value to MMR.
func (c *Context) mmrNaive(i int, selected []int, p Params) float64 {
	rel := p.W*c.spatialRelNaive(i) + (1-p.W)*c.TextualRel(i)
	v := (1 - p.Lambda) * rel
	if p.K > 1 && len(selected) > 0 {
		var div float64
		for _, j := range selected {
			div += c.Div(i, j, p.W)
		}
		v += p.Lambda / float64(p.K-1) * div
	}
	return v
}

// Baseline runs the paper's BL: the same greedy MMR construction but
// "examining all photos in each iteration instead of operating on the
// grid cells and using the bounds" — every unselected photo is evaluated
// exactly, with no grid, no per-cell bounds and no precomputed
// neighborhood counts.
func (c *Context) Baseline(p Params) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	start := time.Now()
	var stats Stats
	k := min(p.K, len(c.photos))
	selected := make([]int, 0, k)
	isSelected := make([]bool, len(c.photos))
	for len(selected) < k {
		stats.Iterations++
		best := -1
		bestVal := math.Inf(-1)
		for i := range c.photos {
			if isSelected[i] {
				continue
			}
			v := c.mmrNaive(i, selected, p)
			stats.PhotosEvaluated++
			if v > bestVal {
				bestVal = v
				best = i
			}
		}
		if best < 0 {
			break
		}
		selected = append(selected, best)
		isSelected[best] = true
	}
	stats.Elapsed = time.Since(start)
	return Result{
		Selected:  selected,
		Objective: c.Objective(selected, p),
		Stats:     stats,
	}, nil
}

// Exhaustive finds the subset of size k maximizing the objective F by
// enumerating every subset. Only feasible for small |Rs|; used as the
// optimality oracle in tests and for greedy-gap measurements.
func (c *Context) Exhaustive(p Params) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	start := time.Now()
	n := len(c.photos)
	k := p.K
	if k > n {
		k = n
	}
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	best := make([]int, k)
	copy(best, idx)
	bestVal := c.Objective(idx, p)
	for {
		// Advance to the next k-combination of {0..n-1}.
		i := k - 1
		for i >= 0 && idx[i] == n-k+i {
			i--
		}
		if i < 0 {
			break
		}
		idx[i]++
		for j := i + 1; j < k; j++ {
			idx[j] = idx[j-1] + 1
		}
		if v := c.Objective(idx, p); v > bestVal {
			bestVal = v
			copy(best, idx)
		}
	}
	return Result{
		Selected:  best,
		Objective: bestVal,
		Stats:     Stats{Elapsed: time.Since(start)},
	}, nil
}
