// Package diversify implements the paper's second contribution: the SOI
// diversification problem (Problem 2) and the ST_Rel+Div algorithm
// (Algorithm 2) that selects a small, spatio-textually relevant and
// diverse photo summary for a street, together with the exact greedy
// baseline BL and the eight single-criterion variants of Table 3
// (S/T/ST × Rel/Div/Rel+Div).
package diversify

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/geo"
	"repro/internal/grid"
	"repro/internal/network"
	"repro/internal/photo"
	"repro/internal/vocab"
)

// Params configures a diversification query.
type Params struct {
	// K is the number of photos to select.
	K int
	// Lambda trades relevance (0) against diversity (1) in Eq. 2/10.
	Lambda float64
	// W trades the textual (0) against the spatial (1) aspect in Eq. 4–5.
	W float64
	// Rho is the neighborhood radius of the spatial relevance measure
	// (Def. 4); the index grid uses cells of side Rho/2.
	Rho float64
}

// Validate reports whether the parameters are well formed. NaN fails
// every comparison, so each test is true only for a good value.
func (p Params) Validate() error {
	if p.K <= 0 {
		return fmt.Errorf("diversify: non-positive k %d", p.K)
	}
	if !(p.Lambda >= 0 && p.Lambda <= 1) {
		return fmt.Errorf("diversify: lambda %v outside [0,1]", p.Lambda)
	}
	if !(p.W >= 0 && p.W <= 1) {
		return fmt.Errorf("diversify: w %v outside [0,1]", p.W)
	}
	if !(p.Rho > 0) || math.IsInf(p.Rho, 1) {
		return fmt.Errorf("diversify: rho %v is not a positive finite number", p.Rho)
	}
	return nil
}

// Context is the per-street evaluation context: the street's associated
// photos Rs, its keyword frequency vector Φs, the normalizer maxD(s), and
// the ρ/2 grid with per-cell inverted indexes of Section 4.2.1.
//
// A Context is read-only once NewContext returns: no method writes to it
// (STRelDiv and the other constructions keep their working state in
// locals), so one context may serve any number of concurrent queries over
// its street — the soi.Engine memoises them per (street, ε, ρ). Nothing
// in it depends on k, λ or w.
type Context struct {
	photos []photo.Photo // Rs; local indices 0..n-1
	freq   vocab.Freq    // Φs
	freqL1 float64       // ‖Φs‖₁
	maxD   float64       // maxD(s)
	rho    float64
	// slab is the ρ/2 grid over Rs; photo i is its object i. Cells are
	// addressed by ordinal, which ascends with the cell id.
	slab *grid.Slab

	// spatialRel caches Def. 4 for every photo.
	spatialRel []float64
	// cellSpatialLo/Hi cache Eq. 11–12 per cell ordinal (R-independent).
	cellSpatialLo, cellSpatialHi []float64
	// cellTextualLo/Hi cache Eq. 13–14 per cell ordinal (R-independent).
	cellTextualLo, cellTextualHi []float64
}

// ErrNoPhotos is returned when a street has no associated photos.
var ErrNoPhotos = errors.New("diversify: street has no associated photos")

// ExtractStreetPhotos returns the photos within eps of the street (the
// paper's Rs) and the normalizer maxD(s): the diagonal of the street MBR
// extended by an eps buffer.
func ExtractStreetPhotos(net *network.Network, street network.StreetID, corpus *photo.Corpus, eps float64) ([]photo.Photo, float64) {
	var rs []photo.Photo
	for _, p := range corpus.All() {
		if net.DistToStreet(p.Loc, street) <= eps {
			rs = append(rs, p)
		}
	}
	maxD := net.StreetBounds(street).Expand(eps).Diagonal()
	return rs, maxD
}

// FreqFromPhotos derives the street keyword frequency vector Φs from the
// tags of its associated photos (the default derivation; the paper notes
// Φs can come from any description of the street).
func FreqFromPhotos(dict *vocab.Dictionary, rs []photo.Photo) vocab.Freq {
	f := vocab.NewFreq(dict)
	for i := range rs {
		f.AddSet(rs[i].Tags, 1)
	}
	return f
}

// NewContext builds the evaluation context for one street. The photos
// slice is Rs; freq is Φs; maxD is the diversity normalizer. The grid uses
// cells of side rho/2 as Section 4.2.1 prescribes.
func NewContext(rs []photo.Photo, freq vocab.Freq, maxD, rho float64) (*Context, error) {
	if len(rs) == 0 {
		return nil, ErrNoPhotos
	}
	if rho <= 0 {
		return nil, fmt.Errorf("diversify: non-positive rho %v", rho)
	}
	if maxD <= 0 {
		return nil, fmt.Errorf("diversify: non-positive maxD %v", maxD)
	}
	locs := make([]geo.Point, len(rs))
	keys := make([]vocab.Set, len(rs))
	for i := range rs {
		locs[i] = rs[i].Loc
		keys[i] = rs[i].Tags
	}
	slab, err := grid.BuildSlab(grid.Config{CellSize: rho / 2}, locs, keys, nil)
	if err != nil {
		return nil, err
	}
	ctx := &Context{
		photos: rs,
		freq:   freq,
		freqL1: freq.L1(),
		maxD:   maxD,
		rho:    rho,
		slab:   slab,
	}
	ctx.precompute()
	return ctx, nil
}

// Photos returns Rs; callers must not modify it.
func (c *Context) Photos() []photo.Photo { return c.photos }

// Len returns |Rs|.
func (c *Context) Len() int { return len(c.photos) }

// members returns the photos (local indices, ascending) of cell ord.
func (c *Context) members(ord int) []uint32 {
	return c.slab.Members[c.slab.MemberOff[ord]:c.slab.MemberOff[ord+1]]
}

// cellKeywords returns c.Ψ of cell ord, the sorted set of tags its photos
// carry.
func (c *Context) cellKeywords(ord int) vocab.Set {
	return vocab.Set(c.slab.CellKw[c.slab.KwOff[ord]:c.slab.KwOff[ord+1]])
}

// precompute fills the R-independent caches: per-photo spatial relevance
// and the per-cell relevance bounds. Any photo within ρ of a photo lies at
// most two ρ/2 cells away, so both read the δ=2 neighbourhood of a cell.
func (c *Context) precompute() {
	n := len(c.photos)
	numCells := c.slab.NumCells()
	c.spatialRel = make([]float64, n)
	c.cellSpatialLo = make([]float64, numCells)
	c.cellSpatialHi = make([]float64, numCells)
	c.cellTextualLo = make([]float64, numCells)
	c.cellTextualHi = make([]float64, numCells)
	support := c.freq.Support()
	var near []int32
	for ord := 0; ord < numCells; ord++ {
		near = c.slab.NeighborhoodInto(ord, 2, near[:0])
		total := 0
		for _, nb := range near {
			total += len(c.members(int(nb)))
		}
		for _, i := range c.members(ord) {
			cnt := 0
			for _, nb := range near {
				for _, m := range c.members(int(nb)) {
					if c.photos[i].Loc.Dist(c.photos[m].Loc) <= c.rho {
						cnt++
					}
				}
			}
			c.spatialRel[i] = float64(cnt) / float64(n)
		}
		// Eq. 11: every photo covers at least its own cell.
		c.cellSpatialLo[ord] = float64(len(c.members(ord))) / float64(n)
		// Eq. 12: and at most the cells within two cells away.
		c.cellSpatialHi[ord] = float64(total) / float64(n)
		c.cellTextualLo[ord], c.cellTextualHi[ord] = c.textualRelBounds(ord, support)
	}
}

// textualRelBounds computes Eq. 13–14 for cell ord: the minimum and
// maximum of Σ_{ψ∈Ψr} Φs(ψ)/‖Φs‖₁ over keyword sets Ψr ⊆ c.Ψ obeying the
// cell's cardinality bounds [ψmin, ψmax].
func (c *Context) textualRelBounds(ord int, support vocab.Set) (lo, hi float64) {
	if c.freqL1 == 0 {
		return 0, 0
	}
	keywords := c.cellKeywords(ord)
	inSupport := keywords.Intersect(support)
	freqs := make([]float64, 0, len(inSupport))
	for _, kw := range inSupport {
		freqs = append(freqs, c.freq[kw])
	}
	sort.Float64s(freqs) // ascending
	// Ψ+(c|s): up to ψmax keywords of c.Ψ that appear in Ψs, taking the
	// largest frequencies; padding keywords contribute zero.
	nHi := int(c.slab.PsiMax[ord])
	if nHi > len(freqs) {
		nHi = len(freqs)
	}
	for i := 0; i < nHi; i++ {
		hi += freqs[len(freqs)-1-i]
	}
	// Ψ−(c|s): prefer the ψmin keywords outside Ψs (zero frequency); any
	// shortfall is filled with the lowest in-support frequencies.
	nOutside := keywords.Len() - len(inSupport)
	need := int(c.slab.PsiMin[ord]) - nOutside
	for i := 0; i < need && i < len(freqs); i++ {
		lo += freqs[i]
	}
	return lo / c.freqL1, hi / c.freqL1
}

// TextualRel returns the textual relevance of photo i (Def. 6); zero when
// the street has an empty keyword vector.
func (c *Context) TextualRel(i int) float64 {
	if c.freqL1 == 0 {
		return 0
	}
	return c.freq.SumOver(c.photos[i].Tags) / c.freqL1
}

// SpatialDiv returns the spatial diversity of photos i and j (Def. 5).
func (c *Context) SpatialDiv(i, j int) float64 {
	return c.photos[i].Loc.Dist(c.photos[j].Loc) / c.maxD
}

// TextualDiv returns the textual diversity of photos i and j (Def. 7).
func (c *Context) TextualDiv(i, j int) float64 {
	return c.photos[i].Tags.JaccardDistance(c.photos[j].Tags)
}

// Rel returns the blended relevance of photo i under weight w:
// w·spatial_rel + (1−w)·textual_rel (the per-photo summand of Eq. 4).
func (c *Context) Rel(i int, w float64) float64 {
	return w*c.spatialRel[i] + (1-w)*c.TextualRel(i)
}

// Div returns the blended pairwise diversity of photos i, j under weight
// w (the per-pair summand of Eq. 5).
func (c *Context) Div(i, j int, w float64) float64 {
	return w*c.SpatialDiv(i, j) + (1-w)*c.TextualDiv(i, j)
}

// MMR computes the maximal marginal relevance of candidate photo i given
// the already-selected set (Eq. 10). k is the target summary size.
func (c *Context) MMR(i int, selected []int, p Params) float64 {
	v := (1 - p.Lambda) * c.Rel(i, p.W)
	if p.K > 1 && len(selected) > 0 {
		var div float64
		for _, j := range selected {
			div += c.Div(i, j, p.W)
		}
		v += p.Lambda / float64(p.K-1) * div
	}
	return v
}

// RelScore computes rel(Rk) of Eq. 4 for a selected set.
func (c *Context) RelScore(selected []int, w float64) float64 {
	if len(selected) == 0 {
		return 0
	}
	var sum float64
	for _, i := range selected {
		sum += c.Rel(i, w)
	}
	return sum / float64(len(selected))
}

// DivScore computes div(Rk) of Eq. 5 for a selected set; zero for fewer
// than two photos.
func (c *Context) DivScore(selected []int, w float64) float64 {
	k := len(selected)
	if k < 2 {
		return 0
	}
	var sum float64
	for a := 0; a < k; a++ {
		for b := a + 1; b < k; b++ {
			sum += c.Div(selected[a], selected[b], w)
		}
	}
	// Eq. 5 sums over ordered pairs with the 2/(k(k−1)) normalizer, which
	// equals the unordered-pair sum divided by k(k−1)/2.
	return sum / (float64(k) * float64(k-1) / 2)
}

// Objective computes F(Rk) of Eq. 2: (1−λ)·rel + λ·div.
func (c *Context) Objective(selected []int, p Params) float64 {
	return (1-p.Lambda)*c.RelScore(selected, p.W) + p.Lambda*c.DivScore(selected, p.W)
}

// minInt returns the smaller of a and b.
func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
