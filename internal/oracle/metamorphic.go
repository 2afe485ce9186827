package oracle

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/diversify"
	"repro/internal/geo"
	"repro/internal/network"
)

// This file is the metamorphic suite: properties the definitions imply
// about RELATED inputs, which catch bug classes a point-wise differential
// check cannot (the oracle and the implementation sharing a misreading of
// the paper, for instance). Checked relations:
//
//   - keyword-superset mass monotonicity: dropping a query keyword can
//     never increase any segment's mass (Def. 1 sums over matching POIs).
//   - ε-monotonicity: widening the buffer can never decrease any
//     segment's mass.
//   - rigid-motion invariance: translating or rotating the whole world
//     preserves every distance, hence every mass, interest and ranking
//     (up to float rounding of rotated coordinates).
//   - POI-insertion monotonicity: adding a relevant POI can only grow
//     masses, and grows the covered segment by at least its weight.
//   - λ = 0 degeneration: with diversity weighted zero, every MMR
//     construction must select exactly the pure-relevance top-k.

// RelTolMotion is the relative interest tolerance for rigid-motion
// comparisons; rotation perturbs segment lengths in the last float bits.
const RelTolMotion = 1e-9

// Metamorphic runs the metamorphic suite over one world and returns every
// violated relation as a divergence.
func Metamorphic(w World, queries []core.Query, opt Options) ([]Divergence, error) {
	net, pois, photos, dict, err := w.Build()
	if err != nil {
		return nil, err
	}
	cell := opt.cellSizes()[0]
	ix, err := core.NewIndex(net, pois, core.IndexConfig{CellSize: cell})
	if err != nil {
		return nil, fmt.Errorf("oracle: building index: %w", err)
	}

	var divs []Divergence
	report := func(impl string, q core.Query, detail string) {
		divs = append(divs, Divergence{Impl: impl, CellSize: cell, Query: q, Detail: detail})
	}

	baseTopK := make([][]core.StreetResult, len(queries))
	for qi, q := range queries {
		qset := ResolveKeywords(pois, q.Keywords)
		full := AllSegmentMasses(net, pois, qset, q.Epsilon)

		// Per-segment differential: the grid-indexed mass must equal the
		// exhaustive-scan mass on every segment, not just the reported ones.
		for sid, want := range full {
			if got := ix.SegmentMass(network.SegmentID(sid), qset, q.Epsilon); got != want {
				report("index/segment-mass", q, fmt.Sprintf("segment %d: mass %v, oracle %v", sid, got, want))
				break
			}
		}

		if len(q.Keywords) >= 2 {
			subSet, _ := pois.Dict().LookupAll(q.Keywords[:len(q.Keywords)-1])
			sub := AllSegmentMasses(net, pois, subSet, q.Epsilon)
			for sid := range sub {
				if sub[sid] > full[sid] {
					report("metamorphic/keyword-superset", q,
						fmt.Sprintf("segment %d: mass %v under Ψ'=%v exceeds %v under superset Ψ",
							sid, sub[sid], q.Keywords[:len(q.Keywords)-1], full[sid]))
					break
				}
			}
		}

		wider := AllSegmentMasses(net, pois, qset, 2*q.Epsilon)
		for sid := range full {
			if full[sid] > wider[sid] {
				report("metamorphic/eps-monotonicity", q,
					fmt.Sprintf("segment %d: mass %v at ε exceeds %v at 2ε", sid, full[sid], wider[sid]))
				break
			}
		}

		baseTopK[qi], err = TopK(net, pois, q)
		if err != nil {
			return nil, err
		}
	}

	// Rigid motions: one transformed build checks every query.
	for _, m := range motions(w) {
		tw := m.fn(w)
		tnet, tpois, _, _, err := tw.Build()
		if err != nil {
			return nil, fmt.Errorf("oracle: building %s world: %w", m.name, err)
		}
		tix, err := core.NewIndex(tnet, tpois, core.IndexConfig{CellSize: cell})
		if err != nil {
			return nil, fmt.Errorf("oracle: indexing %s world: %w", m.name, err)
		}
		for qi, q := range queries {
			tor, err := TopK(tnet, tpois, q)
			if err != nil {
				return nil, err
			}
			if d := EqualRanked(tor, baseTopK[qi], RelTolMotion); d != "" {
				report("metamorphic/"+m.name+"/oracle", q, d)
			}
			if res, _, err := tix.SOI(q); err != nil {
				report("metamorphic/"+m.name+"/soi", q, "error: "+err.Error())
			} else if d := EqualRanked(res, baseTopK[qi], RelTolMotion); d != "" {
				report("metamorphic/"+m.name+"/soi", q, d)
			}
		}
	}

	// POI insertion: drop a fresh relevant POI onto a segment and require
	// every mass to be non-decreasing, the covered segment to gain at
	// least the new weight, and the top street interest not to drop.
	for qi, q := range queries {
		target := network.SegmentID(0)
		if len(baseTopK[qi]) > 0 {
			target = baseTopK[qi][0].BestSegment
		} else if net.NumSegments() == 0 {
			continue
		}
		seg := net.Segment(target).Geom
		mid := geo.Pt((seg.A.X+seg.B.X)/2, (seg.A.Y+seg.B.Y)/2)
		const weight = 3.0
		grown := w.Clone()
		grown.POIs = append(grown.POIs, POISpec{Loc: mid, Keywords: q.Keywords, Weight: weight})
		gnet, gpois, _, _, err := grown.Build()
		if err != nil {
			return nil, fmt.Errorf("oracle: building grown world: %w", err)
		}
		qset := ResolveKeywords(pois, q.Keywords)
		gset := ResolveKeywords(gpois, q.Keywords)
		before := AllSegmentMasses(net, pois, qset, q.Epsilon)
		after := AllSegmentMasses(gnet, gpois, gset, q.Epsilon)
		for sid := range before {
			if after[sid] < before[sid] {
				report("metamorphic/poi-insertion", q,
					fmt.Sprintf("segment %d: mass dropped from %v to %v after inserting a POI", sid, before[sid], after[sid]))
				break
			}
		}
		if after[target] < before[target]+weight {
			report("metamorphic/poi-insertion", q,
				fmt.Sprintf("segment %d: mass %v after inserting weight-%v POI on it, want ≥ %v",
					target, after[target], weight, before[target]+weight))
		}
		gix, err := core.NewIndex(gnet, gpois, core.IndexConfig{CellSize: cell})
		if err != nil {
			return nil, fmt.Errorf("oracle: indexing grown world: %w", err)
		}
		if res, _, err := gix.SOI(q); err != nil {
			report("metamorphic/poi-insertion", q, "error: "+err.Error())
		} else if len(baseTopK[qi]) > 0 {
			if len(res) == 0 || res[0].Interest < baseTopK[qi][0].Interest {
				top := 0.0
				if len(res) > 0 {
					top = res[0].Interest
				}
				report("metamorphic/poi-insertion", q,
					fmt.Sprintf("top interest dropped from %v to %v after inserting a relevant POI",
						baseTopK[qi][0].Interest, top))
			}
		}
	}

	// λ = 0 degeneration on the photo-richest street.
	if len(w.Photos) > 0 && net.NumStreets() > 0 {
		const eps = 0.0005
		bestStreet, bestCount := network.StreetID(0), -1
		for i := range net.Streets() {
			rs, _ := diversify.ExtractStreetPhotos(net, network.StreetID(i), photos, eps)
			if len(rs) > bestCount {
				bestStreet, bestCount = network.StreetID(i), len(rs)
			}
		}
		rs, maxD := diversify.ExtractStreetPhotos(net, bestStreet, photos, eps)
		if len(rs) >= 2 && maxD > 0 {
			sum := Summary{Photos: rs, Freq: diversify.FreqFromPhotos(dict, rs), MaxD: maxD}
			p := diversify.Params{K: minInt(4, len(rs)), Lambda: 0, W: 0.5, Rho: maxD / 4}
			want := sum.GreedyRelevanceTopK(p.K, p.W, p.Rho)
			ctx, err := diversify.NewContext(rs, sum.Freq, maxD, p.Rho)
			if err != nil {
				return nil, err
			}
			for name, run := range map[string]func(diversify.Params) (diversify.Result, error){
				"strel-div": ctx.STRelDiv,
				"baseline":  ctx.Baseline,
			} {
				res, err := run(p)
				if err != nil {
					report("metamorphic/lambda-zero/"+name, core.Query{}, "error: "+err.Error())
					continue
				}
				if !equalInts(res.Selected, want) {
					report("metamorphic/lambda-zero/"+name, core.Query{},
						fmt.Sprintf("street %d: selection %v at λ=0, pure-relevance top-k is %v", bestStreet, res.Selected, want))
				}
			}
		}
	}

	return divs, nil
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
