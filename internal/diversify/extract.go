package diversify

import (
	"fmt"
	"slices"

	"repro/internal/geo"
	"repro/internal/grid"
	"repro/internal/network"
	"repro/internal/photo"
)

// PhotoIndex accelerates the per-street photo association Rs = {r :
// dist(r, s) ≤ ε}. ExtractStreetPhotos scans the whole corpus per street;
// over a city-scale corpus this index answers the same query by visiting
// only the grid cells within ε of the street's segments. Build it once
// and reuse it across streets; it is safe for concurrent reads.
type PhotoIndex struct {
	corpus *photo.Corpus
	slab   *grid.Slab
}

// NewPhotoIndex builds a photo grid with the given cell size (a size
// close to the query ε keeps the candidate sets small). The index reads
// cell membership only, so the grid carries no tags.
func NewPhotoIndex(corpus *photo.Corpus, cellSize float64) (*PhotoIndex, error) {
	all := corpus.All()
	locs := make([]geo.Point, len(all))
	for i := range all {
		locs[i] = all[i].Loc
	}
	slab, err := grid.BuildSlab(grid.Config{CellSize: cellSize}, locs, nil, nil)
	if err != nil {
		return nil, fmt.Errorf("diversify: building photo index: %w", err)
	}
	return &PhotoIndex{corpus: corpus, slab: slab}, nil
}

// StreetPhotos returns the photos within eps of the street and the
// normalizer maxD(s), like ExtractStreetPhotos but touching only ε-near
// grid cells. Results are sorted by photo id, matching the full scan.
func (pi *PhotoIndex) StreetPhotos(net *network.Network, street network.StreetID, eps float64) ([]photo.Photo, float64) {
	s := pi.slab
	var ids []uint32
	var cells []int32
	for _, sid := range net.Street(street).Segments {
		seg := net.Segment(sid).Geom
		cells = s.CellsNearSegmentInto(seg, eps, cells[:0])
		for _, ord := range cells {
			// A photo is near the street through any one segment, so it
			// may be accepted once per segment; the compaction below
			// keeps one.
			for _, m := range s.Members[s.MemberOff[ord]:s.MemberOff[ord+1]] {
				if seg.DistToPoint(pi.corpus.Get(m).Loc) <= eps {
					ids = append(ids, m)
				}
			}
		}
	}
	slices.Sort(ids)
	ids = slices.Compact(ids)
	rs := make([]photo.Photo, len(ids))
	for i, id := range ids {
		rs[i] = *pi.corpus.Get(id)
	}
	maxD := net.StreetBounds(street).Expand(eps).Diagonal()
	return rs, maxD
}
