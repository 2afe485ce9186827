package experiments

import (
	"io"
	"sort"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/lcmsr"
	"repro/internal/network"
)

// LCMSRResult contrasts the k-SOI ranking with the length-constrained
// maximum-sum region query of the paper's reference [7], under a length
// budget equal to the total length of the k-SOI answer streets. The
// paper's Section 1 argues that [7] returns one connected blob that (a)
// cannot surface several disjoint interesting sites, and (b) includes
// low-value streets purely for connectivity; this experiment quantifies
// both effects on the planted cities.
type LCMSRResult struct {
	City string
	// Budget is the shared length budget (degrees).
	Budget float64

	// SOIStreets / RegionStreets are the street names of each answer.
	SOIStreets    []string
	RegionStreets []string
	// SOISites / RegionSites are the distinct planted shopping sites
	// covered by each answer.
	SOISites    int
	RegionSites int
	// RegionFillers counts region streets that are neither planted nor in
	// the SOI answer — connectivity filler.
	RegionFillers int
}

// LCMSRCompare runs both methods on the "shop" query.
func LCMSRCompare(c *City, k int) (LCMSRResult, error) {
	out := LCMSRResult{City: c.Name()}
	q := core.Query{Keywords: []string{"shop"}, K: k, Epsilon: Epsilon}
	res, _, err := c.Index.SOI(q)
	if err != nil {
		return out, err
	}
	net := c.Dataset.Network
	for _, r := range res {
		out.SOIStreets = append(out.SOIStreets, r.Name)
		out.Budget += net.Street(r.Street).Length()
	}

	// Vertex scores with the grid as the snap prefilter: candidate
	// segments are those within ε of the POI's surroundings.
	query, _ := c.Dataset.Dict.LookupAll(q.Keywords)
	slab := c.Index.Slab()
	scores := lcmsr.VertexScoresWith(net, c.Dataset.POIs, query, func(loc geo.Point) []network.SegmentID {
		// An indexed POI's cell is never empty.
		return c.Index.CellSegments(Epsilon, slab.OrdinalOf(slab.Lattice().CellIndex(loc)))
	})
	st := net.Stats()
	snap := 0.0
	if st.NumSegments > 0 {
		snap = 1.5 * st.TotalLen / float64(st.NumSegments)
	}
	region, err := lcmsr.Query(net, scores, out.Budget, lcmsr.Options{SnapRadius: snap})
	if err != nil {
		return out, err
	}
	for _, sid := range region.Streets(net) {
		out.RegionStreets = append(out.RegionStreets, net.Street(sid).Name)
	}
	sort.Strings(out.RegionStreets)

	siteOf := map[string]int{}
	for rank, site := range c.Dataset.Profile.ShopSites {
		for _, s := range site.Streets {
			siteOf[s] = rank
		}
	}
	countSites := func(streets []string) int {
		sites := map[int]bool{}
		for _, s := range streets {
			if r, ok := siteOf[s]; ok {
				sites[r] = true
			}
		}
		return len(sites)
	}
	out.SOISites = countSites(out.SOIStreets)
	out.RegionSites = countSites(out.RegionStreets)

	inSOI := map[string]bool{}
	for _, s := range out.SOIStreets {
		inSOI[s] = true
	}
	for _, s := range out.RegionStreets {
		if _, planted := siteOf[s]; !planted && !inSOI[s] {
			out.RegionFillers++
		}
	}
	return out, nil
}

// PrintLCMSR renders the comparison.
func PrintLCMSR(w io.Writer, r LCMSRResult) {
	line(w, "k-SOI vs LCMSR [7] — %s, \"shop\", shared length budget %.4f°", r.City, r.Budget)
	line(w, "  k-SOI answer: %d streets covering %d planted sites", len(r.SOIStreets), r.SOISites)
	for i, s := range r.SOIStreets {
		line(w, "    %2d. %s", i+1, s)
	}
	line(w, "  LCMSR region: %d streets covering %d planted site(s), %d connectivity fillers",
		len(r.RegionStreets), r.RegionSites, r.RegionFillers)
	for _, s := range r.RegionStreets {
		line(w, "        %s", s)
	}
	line(w, "  (the paper's Section 1 critique: the connected region concentrates on")
	line(w, "   one site and pads with filler streets, while k-SOI surfaces disjoint sites)")
}
