package diversify

import (
	"fmt"
	"hash/fnv"
	"math"

	"repro/internal/photo"
)

// This file implements the paper's future-work extension: "we plan to
// enhance the diversification criteria with visual features extracted
// from the photos" (Section 6). Photos gain a feature vector (in a real
// deployment, an image embedding; here synthesizable from tags as a
// stand-in), pairwise visual diversity is their cosine distance, and the
// greedy MaxSum construction optimizes a three-way blend of spatial,
// textual and visual components.

// VisualParams extends Params with the share of the objective devoted to
// the visual component. The effective component weights are
//
//	spatial = W·(1−VisualWeight)
//	textual = (1−W)·(1−VisualWeight)
//	visual  = VisualWeight
//
// so VisualWeight = 0 reduces exactly to the base objective.
type VisualParams struct {
	Params
	VisualWeight float64
}

// Validate reports whether the parameters are well formed.
func (p VisualParams) Validate() error {
	if err := p.Params.Validate(); err != nil {
		return err
	}
	if p.VisualWeight < 0 || p.VisualWeight > 1 {
		return fmt.Errorf("diversify: visual weight %v outside [0,1]", p.VisualWeight)
	}
	return nil
}

// WithFeatures returns a context with one feature vector attached per
// photo (parallel to the context's photo slice); all vectors must share
// one dimensionality. The receiver is left as it was — it may be shared
// with concurrent readers — and the returned context shares everything
// NewContext built.
func (c *Context) WithFeatures(features [][]float64) (*Context, error) {
	if len(features) != len(c.photos) {
		return nil, fmt.Errorf("diversify: %d feature vectors for %d photos", len(features), len(c.photos))
	}
	if len(features) > 0 {
		dim := len(features[0])
		for i, f := range features {
			if len(f) != dim {
				return nil, fmt.Errorf("diversify: feature %d has dim %d, want %d", i, len(f), dim)
			}
		}
	}
	withFeatures := *c
	withFeatures.features = features
	return &withFeatures, nil
}

// HasFeatures reports whether feature vectors are attached.
func (c *Context) HasFeatures() bool { return c.features != nil }

// VisualDiv returns the cosine distance between the feature vectors of
// photos i and j, in [0, 1] for non-negative features. Zero-norm vectors
// have distance 1 to everything except another zero-norm vector (0).
func (c *Context) VisualDiv(i, j int) float64 {
	a, b := c.features[i], c.features[j]
	var dot, na, nb float64
	for d := range a {
		dot += a[d] * b[d]
		na += a[d] * a[d]
		nb += b[d] * b[d]
	}
	switch {
	case na == 0 && nb == 0:
		return 0
	case na == 0 || nb == 0:
		return 1
	}
	cos := dot / math.Sqrt(na*nb)
	if cos > 1 {
		cos = 1
	}
	if cos < -1 {
		cos = -1
	}
	return 1 - cos
}

// DivVisual returns the three-way blended pairwise diversity.
func (c *Context) DivVisual(i, j int, p VisualParams) float64 {
	base := (1 - p.VisualWeight) * c.Div(i, j, p.W)
	if p.VisualWeight == 0 {
		return base
	}
	return base + p.VisualWeight*c.VisualDiv(i, j)
}

// MMRVisual is Eq. 10 with the three-way diversity blend. Relevance is
// unchanged: the extension only enriches the diversity side, as the
// paper's future-work sentence describes.
func (c *Context) MMRVisual(i int, selected []int, p VisualParams) float64 {
	// Relevance keeps its spatio-textual definition; the extension only
	// enriches the diversity side.
	v := (1 - p.Lambda) * c.Rel(i, p.W)
	if p.K > 1 && len(selected) > 0 {
		var div float64
		for _, j := range selected {
			div += c.DivVisual(i, j, p)
		}
		v += p.Lambda / float64(p.K-1) * div
	}
	return v
}

// ObjectiveVisual computes F with the three-way diversity blend.
func (c *Context) ObjectiveVisual(selected []int, p VisualParams) float64 {
	k := len(selected)
	rel := c.RelScore(selected, p.W)
	var div float64
	if k >= 2 {
		var sum float64
		for a := 0; a < k; a++ {
			for b := a + 1; b < k; b++ {
				sum += c.DivVisual(selected[a], selected[b], p)
			}
		}
		div = sum / (float64(k) * float64(k-1) / 2)
	}
	return (1-p.Lambda)*rel + p.Lambda*div
}

// GreedyVisual builds a summary with greedy MMR under the three-way
// blend. The visual component has no per-cell bounds (feature vectors do
// not aggregate into the grid cells), so every candidate is evaluated
// exactly, like the baseline.
func (c *Context) GreedyVisual(p VisualParams) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	if p.VisualWeight > 0 && c.features == nil {
		return Result{}, fmt.Errorf("diversify: visual weight %v but no features attached", p.VisualWeight)
	}
	k := min(p.K, len(c.photos))
	selected := make([]int, 0, k)
	isSelected := make([]bool, len(c.photos))
	var stats Stats
	for len(selected) < k {
		best := -1
		bestVal := math.Inf(-1)
		for i := range c.photos {
			if isSelected[i] {
				continue
			}
			v := c.MMRVisual(i, selected, p)
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
	return Result{
		Selected:  selected,
		Objective: c.ObjectiveVisual(selected, p),
		Stats:     stats,
	}, nil
}

// HashFeatures synthesizes deterministic feature vectors from photo tag
// sets: each tag contributes to dim buckets through an FNV hash. This is
// the simulation stand-in for real image embeddings — photos with
// identical tags (the near-duplicate bursts of the generator) get
// identical vectors, overlapping tag sets get correlated vectors.
func HashFeatures(photos []photo.Photo, dim int) [][]float64 {
	if dim <= 0 {
		dim = 8
	}
	out := make([][]float64, len(photos))
	for i := range photos {
		f := make([]float64, dim)
		for _, tag := range photos[i].Tags {
			h := fnv.New64a()
			var buf [4]byte
			buf[0] = byte(tag)
			buf[1] = byte(tag >> 8)
			buf[2] = byte(tag >> 16)
			buf[3] = byte(tag >> 24)
			h.Write(buf[:])
			v := h.Sum64()
			for d := 0; d < dim; d++ {
				f[d] += float64((v>>(uint(d)*7))&0x7f) / 127
			}
		}
		out[i] = f
	}
	return out
}
