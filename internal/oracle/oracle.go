package oracle

import (
	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/poi"
	"repro/internal/vocab"
)

// This file is the brute-force reference for the paper's first problem.
// It implements Definitions 1–3 and Eq. 1 directly from their statements:
//
//	Def. 1  mass(ℓ)     = Σ weight(p) over POIs p with at least one query
//	                      keyword and dist(p, ℓ) ≤ ε — computed here by
//	                      scanning EVERY POI against the segment, no grid,
//	                      no inverted index, no bound.
//	Def. 2  int(ℓ)      = mass(ℓ) / (2ε·len(ℓ) + πε²)
//	Def. 3  int(s)      = max over segments ℓ of s of int(ℓ)
//	Eq. 1   k-SOI       = the k streets with the largest int(s), positive
//	                      interest only, ties broken by ascending street id.
//
// The arithmetic deliberately mirrors the production evaluators at the
// two spots where floating point could otherwise diverge: masses are
// accumulated in POI-id order (weights are integral in harness worlds, so
// any order gives the same float; id order keeps even weighted worlds
// comparable), and interests are computed through core.Interest so the
// denominator is the same expression bit for bit.

// ResolveKeywords interns query keywords against a corpus dictionary the
// way core.Index does: normalized, deduplicated, unknown keywords dropped.
func ResolveKeywords(pois *poi.Corpus, keywords []string) vocab.Set {
	set, _ := pois.Dict().LookupAll(keywords)
	return set
}

// SegmentMass computes Def. 1 for one segment by exhaustive pairwise
// point-to-segment distance over the whole corpus.
func SegmentMass(net *network.Network, pois *poi.Corpus, sid network.SegmentID, query vocab.Set, eps float64) float64 {
	seg := net.Segment(sid).Geom
	epsSq := eps * eps
	var mass float64
	for _, p := range pois.All() {
		if !p.Keywords.Intersects(query) {
			continue
		}
		if seg.DistToPointSq(p.Loc) <= epsSq {
			mass += p.Weight
		}
	}
	return mass
}

// AllSegmentMasses computes Def. 1 for every segment of the network.
func AllSegmentMasses(net *network.Network, pois *poi.Corpus, query vocab.Set, eps float64) []float64 {
	out := make([]float64, net.NumSegments())
	for sid := range out {
		out[sid] = SegmentMass(net, pois, network.SegmentID(sid), query, eps)
	}
	return out
}

// SegmentInterest computes Def. 2 for one segment.
func SegmentInterest(net *network.Network, pois *poi.Corpus, sid network.SegmentID, query vocab.Set, eps float64) float64 {
	return core.Interest(
		SegmentMass(net, pois, sid, query, eps),
		net.Segment(sid).Length(),
		eps,
	)
}

// TopK evaluates the k-SOI query exactly from the definitions: every
// street's interest is the maximum of its segments' interests (Def. 3),
// the best segment breaks interest ties by ascending segment id (the
// canonical tie-break every production evaluator uses), streets with zero
// interest are not reported, and the ranking breaks interest ties by
// ascending street id.
func TopK(net *network.Network, pois *poi.Corpus, q core.Query) ([]core.StreetResult, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	query := ResolveKeywords(pois, q.Keywords)
	out := make([]core.StreetResult, 0, net.NumStreets())
	for i := range net.Streets() {
		st := net.Street(network.StreetID(i))
		var best core.StreetResult
		for _, sid := range st.Segments {
			mass := SegmentMass(net, pois, sid, query, q.Epsilon)
			in := core.Interest(mass, net.Segment(sid).Length(), q.Epsilon)
			if in > best.Interest {
				best = core.StreetResult{Interest: in, BestSegment: sid, Mass: mass}
			}
		}
		if best.Interest <= 0 {
			continue
		}
		best.Street = st.ID
		best.Name = st.Name
		out = append(out, best)
	}
	core.SortResults(out)
	if len(out) > q.K {
		out = out[:q.K]
	}
	return out, nil
}

// rigidMotions enumerates the transformations the rigid-motion checks
// apply; exposed for tests via Motions.
type rigidMotion struct {
	name string
	fn   func(World) World
}

// motions returns the harness's rigid motions around the world center:
// a translation by a non-round offset and two rotations.
func motions(w World) []rigidMotion {
	c := w.Center()
	return []rigidMotion{
		{"translate(+0.37,-0.19)", func(w World) World { return w.Translate(0.37, -0.19) }},
		{"rotate(π/3)", func(w World) World { return w.Rotate(1.0471975511965976, c.X, c.Y) }},
		{"rotate(-1.234)", func(w World) World { return w.Rotate(-1.234, c.X, c.Y) }},
	}
}
