// Package oracle is the correctness harness of the repository: a
// deliberately simple, allocation-heavy but obviously-correct reference
// implementation of the paper's definitions (Def. 1–3 / Eq. 1 for the
// k-SOI query, Eq. 2–5 for the MaxSum diversification objective), a
// differential driver that cross-checks every production evaluator —
// baseline BL, Algorithm 1 under both access strategies, a
// snapshot-reloaded index and the parallel engine —
// against the oracle over seeded deterministic worlds, a metamorphic
// suite encoding invariants the oracle cannot check alone, and a shrinker
// that reduces a failing world to a minimal GeoJSON repro.
//
// Everything here trades speed for transparency: the oracle never touches
// a grid, an inverted index or a bound; it scans every POI against every
// segment. That makes it the acceptance gate for every performance or
// refactoring change to the query path — if a clever implementation and
// the oracle disagree, the clever implementation is wrong.
package oracle

import (
	"fmt"
	"io"
	"math"

	"repro/internal/datagen"
	"repro/internal/geo"
	"repro/internal/geojson"
	"repro/internal/network"
	"repro/internal/photo"
	"repro/internal/poi"
	"repro/internal/vocab"
)

// StreetSpec is one street of a plain-data world: a name and its
// polyline. Street ids are positional.
type StreetSpec struct {
	Name   string
	Points []geo.Point
}

// POISpec is one POI of a plain-data world, with keyword strings instead
// of interned ids so worlds survive rebuilds with different dictionaries.
type POISpec struct {
	Loc      geo.Point
	Keywords []string
	Weight   float64
}

// PhotoSpec is one photo of a plain-data world.
type PhotoSpec struct {
	Loc  geo.Point
	Tags []string
}

// World is a city reduced to plain data: the shrinker removes streets and
// POIs from it, the differential driver rebuilds indexes from it, and the
// repro writer serializes it as GeoJSON. A World is cheap to copy and
// deterministic to rebuild.
type World struct {
	Streets []StreetSpec
	POIs    []POISpec
	Photos  []PhotoSpec
	// Traces are free movement polylines for the trajectory queries.
	// They reference no street ids, so they survive street removal
	// during shrinking.
	Traces [][]geo.Point
}

// FromDataset flattens a generated dataset into a plain-data world.
func FromDataset(ds *datagen.Dataset) World {
	return fromDataset(ds, ds.POIs)
}

// FromDatasetWeighted is FromDataset with the dataset's prestige
// importance weights applied to the POIs, so the harness also exercises
// the weighted-mass paths.
func FromDatasetWeighted(ds *datagen.Dataset) World {
	return fromDataset(ds, ds.WeightedPOIs())
}

func fromDataset(ds *datagen.Dataset, pois *poi.Corpus) World {
	var w World
	net := ds.Network
	for i := range net.Streets() {
		st := net.Street(network.StreetID(i))
		first := net.Segment(st.Segments[0])
		pts := []geo.Point{first.Geom.A}
		for _, sid := range st.Segments {
			pts = append(pts, net.Segment(sid).Geom.B)
		}
		w.Streets = append(w.Streets, StreetSpec{Name: st.Name, Points: pts})
	}
	for _, p := range pois.All() {
		w.POIs = append(w.POIs, POISpec{
			Loc:      p.Loc,
			Keywords: ds.Dict.Names(p.Keywords),
			Weight:   p.Weight,
		})
	}
	for _, p := range ds.Photos.All() {
		w.Photos = append(w.Photos, PhotoSpec{Loc: p.Loc, Tags: ds.Dict.Names(p.Tags)})
	}
	return w
}

// Clone returns a deep copy; shrink steps mutate copies only.
func (w World) Clone() World {
	out := World{
		Streets: make([]StreetSpec, len(w.Streets)),
		POIs:    make([]POISpec, len(w.POIs)),
		Photos:  make([]PhotoSpec, len(w.Photos)),
	}
	for i, s := range w.Streets {
		out.Streets[i] = StreetSpec{Name: s.Name, Points: append([]geo.Point(nil), s.Points...)}
	}
	for i, p := range w.POIs {
		out.POIs[i] = POISpec{Loc: p.Loc, Keywords: append([]string(nil), p.Keywords...), Weight: p.Weight}
	}
	for i, p := range w.Photos {
		out.Photos[i] = PhotoSpec{Loc: p.Loc, Tags: append([]string(nil), p.Tags...)}
	}
	out.Traces = make([][]geo.Point, len(w.Traces))
	for i, tr := range w.Traces {
		out.Traces[i] = append([]geo.Point(nil), tr...)
	}
	return out
}

// Transform returns the world with every coordinate mapped through f —
// the rigid-motion metamorphic checks translate and rotate worlds this
// way. Keyword data is shared with the receiver.
func (w World) Transform(f func(geo.Point) geo.Point) World {
	out := World{
		Streets: make([]StreetSpec, len(w.Streets)),
		POIs:    make([]POISpec, len(w.POIs)),
		Photos:  make([]PhotoSpec, len(w.Photos)),
	}
	for i, s := range w.Streets {
		pts := make([]geo.Point, len(s.Points))
		for j, p := range s.Points {
			pts[j] = f(p)
		}
		out.Streets[i] = StreetSpec{Name: s.Name, Points: pts}
	}
	for i, p := range w.POIs {
		out.POIs[i] = POISpec{Loc: f(p.Loc), Keywords: p.Keywords, Weight: p.Weight}
	}
	for i, p := range w.Photos {
		out.Photos[i] = PhotoSpec{Loc: f(p.Loc), Tags: p.Tags}
	}
	out.Traces = make([][]geo.Point, len(w.Traces))
	for i, tr := range w.Traces {
		pts := make([]geo.Point, len(tr))
		for j, p := range tr {
			pts[j] = f(p)
		}
		out.Traces[i] = pts
	}
	return out
}

// Translate returns the world shifted by (dx, dy).
func (w World) Translate(dx, dy float64) World {
	return w.Transform(func(p geo.Point) geo.Point { return geo.Pt(p.X+dx, p.Y+dy) })
}

// Rotate returns the world rotated by theta radians around (cx, cy).
func (w World) Rotate(theta, cx, cy float64) World {
	sin, cos := math.Sin(theta), math.Cos(theta)
	return w.Transform(func(p geo.Point) geo.Point {
		x, y := p.X-cx, p.Y-cy
		return geo.Pt(cx+x*cos-y*sin, cy+x*sin+y*cos)
	})
}

// Center returns the centroid of the world's street vertices (POI
// centroid when there are no streets) — the pivot the rigid-motion checks
// rotate around.
func (w World) Center() geo.Point {
	var sx, sy float64
	n := 0
	for _, s := range w.Streets {
		for _, p := range s.Points {
			sx += p.X
			sy += p.Y
			n++
		}
	}
	if n == 0 {
		for _, p := range w.POIs {
			sx += p.Loc.X
			sy += p.Loc.Y
			n++
		}
	}
	if n == 0 {
		return geo.Pt(0, 0)
	}
	return geo.Pt(sx/float64(n), sy/float64(n))
}

// Build materializes the world into the real data structures every
// implementation consumes: a road network, a POI corpus and a photo
// corpus sharing one dictionary. Building is deterministic: street,
// segment, POI and photo ids follow spec order.
func (w World) Build() (*network.Network, *poi.Corpus, *photo.Corpus, *vocab.Dictionary, error) {
	nb := network.NewBuilder()
	for _, s := range w.Streets {
		nb.AddStreet(s.Name, s.Points)
	}
	net, err := nb.Build()
	if err != nil {
		return nil, nil, nil, nil, fmt.Errorf("oracle: building network: %w", err)
	}
	dict := vocab.NewDictionary()
	pb := poi.NewBuilder(dict)
	for _, p := range w.POIs {
		weight := p.Weight
		if weight == 0 {
			weight = 1
		}
		pb.AddWeighted(p.Loc, p.Keywords, weight)
	}
	phb := photo.NewBuilder(dict)
	for _, p := range w.Photos {
		phb.Add(p.Loc, p.Tags)
	}
	return net, pb.Build(), phb.Build(), dict, nil
}

// WriteGeoJSON serializes the world as a GeoJSON FeatureCollection —
// streets as LineStrings, POIs and photos as Points — with extra
// annotation features appended (soicheck attaches the diverging query).
func (w World) WriteGeoJSON(out io.Writer, extra ...geojson.Feature) error {
	net, pois, photos, _, err := w.Build()
	if err != nil {
		return err
	}
	fc := geojson.NewCollection()
	fc.AddNetwork(net)
	fc.AddPOIs(pois)
	fc.AddPhotos(photos)
	fc.AddTraces(w.Traces)
	fc.Features = append(fc.Features, extra...)
	return fc.Write(out)
}
