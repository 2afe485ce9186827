// Package geojson renders query results as GeoJSON FeatureCollections so
// they can be inspected on a map — the medium the paper's Figures 1 and 2
// use to present Streets of Interest. Streets become LineString features
// carrying their rank and interest; photo summaries become Point features
// carrying their tags.
package geojson

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/diversify"
	"repro/internal/geo"
	"repro/internal/network"
	"repro/internal/photo"
	"repro/internal/poi"
	"repro/internal/vocab"
)

// Feature is one GeoJSON feature.
type Feature struct {
	Type       string                 `json:"type"`
	Geometry   Geometry               `json:"geometry"`
	Properties map[string]interface{} `json:"properties"`
}

// Geometry is a GeoJSON geometry; Coordinates nesting depends on Type.
type Geometry struct {
	Type        string      `json:"type"`
	Coordinates interface{} `json:"coordinates"`
}

// FeatureCollection is the GeoJSON root object.
type FeatureCollection struct {
	Type     string    `json:"type"`
	Features []Feature `json:"features"`
}

// NewCollection returns an empty feature collection.
func NewCollection() *FeatureCollection {
	return &FeatureCollection{Type: "FeatureCollection", Features: []Feature{}}
}

// Write encodes the collection as indented JSON.
func (fc *FeatureCollection) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(fc); err != nil {
		return fmt.Errorf("geojson: %w", err)
	}
	return nil
}

// streetLine returns the [ [x,y], ... ] coordinate list of a street.
func streetLine(net *network.Network, id network.StreetID) [][]float64 {
	st := net.Street(id)
	first := net.Segment(st.Segments[0])
	coords := [][]float64{{first.Geom.A.X, first.Geom.A.Y}}
	for _, sid := range st.Segments {
		p := net.Segment(sid).Geom.B
		coords = append(coords, []float64{p.X, p.Y})
	}
	return coords
}

// AddStreets appends the ranked streets of a k-SOI answer as LineString
// features with rank, interest and mass properties.
func (fc *FeatureCollection) AddStreets(net *network.Network, results []core.StreetResult) {
	for i, r := range results {
		fc.Features = append(fc.Features, Feature{
			Type: "Feature",
			Geometry: Geometry{
				Type:        "LineString",
				Coordinates: streetLine(net, r.Street),
			},
			Properties: map[string]interface{}{
				"kind":     "street-of-interest",
				"rank":     i + 1,
				"name":     r.Name,
				"interest": r.Interest,
				"mass":     r.Mass,
			},
		})
	}
}

// AddNetwork appends every street of a road network as a LineString
// feature carrying its name and id, so a whole world can be serialized
// for inspection (the soicheck repro format).
func (fc *FeatureCollection) AddNetwork(net *network.Network) {
	for i := range net.Streets() {
		id := network.StreetID(i)
		fc.Features = append(fc.Features, Feature{
			Type: "Feature",
			Geometry: Geometry{
				Type:        "LineString",
				Coordinates: streetLine(net, id),
			},
			Properties: map[string]interface{}{
				"kind":   "street",
				"street": int(id),
				"name":   net.Street(id).Name,
			},
		})
	}
}

// AddTraces appends user movement traces as LineString features with a
// "trace" kind and positional index, so trajectory repros and soigen
// outputs carry the corridors alongside the world.
func (fc *FeatureCollection) AddTraces(traces [][]geo.Point) {
	for i, tr := range traces {
		coords := make([][]float64, len(tr))
		for j, p := range tr {
			coords[j] = []float64{p.X, p.Y}
		}
		fc.Features = append(fc.Features, Feature{
			Type: "Feature",
			Geometry: Geometry{
				Type:        "LineString",
				Coordinates: coords,
			},
			Properties: map[string]interface{}{
				"kind":  "trace",
				"trace": i,
			},
		})
	}
}

// AddPOIs appends every POI of a corpus as a Point feature carrying its
// keywords and weight.
func (fc *FeatureCollection) AddPOIs(corpus *poi.Corpus) {
	dict := corpus.Dict()
	for _, p := range corpus.All() {
		fc.Features = append(fc.Features, Feature{
			Type: "Feature",
			Geometry: Geometry{
				Type:        "Point",
				Coordinates: []float64{p.Loc.X, p.Loc.Y},
			},
			Properties: map[string]interface{}{
				"kind":     "poi",
				"keywords": dict.Names(p.Keywords),
				"weight":   p.Weight,
			},
		})
	}
}

// AddPhotos appends every photo of a corpus as a Point feature carrying
// its tags.
func (fc *FeatureCollection) AddPhotos(corpus *photo.Corpus) {
	dict := corpus.Dict()
	for _, p := range corpus.All() {
		fc.Features = append(fc.Features, Feature{
			Type: "Feature",
			Geometry: Geometry{
				Type:        "Point",
				Coordinates: []float64{p.Loc.X, p.Loc.Y},
			},
			Properties: map[string]interface{}{
				"kind": "photo",
				"tags": dict.Names(p.Tags),
			},
		})
	}
}

// AddSummary appends the photos of a diversification result as Point
// features with their tags and selection order.
func (fc *FeatureCollection) AddSummary(street string, rs []photo.Photo, dict *vocab.Dictionary, res diversify.Result) {
	for order, idx := range res.Selected {
		p := rs[idx]
		fc.Features = append(fc.Features, Feature{
			Type: "Feature",
			Geometry: Geometry{
				Type:        "Point",
				Coordinates: []float64{p.Loc.X, p.Loc.Y},
			},
			Properties: map[string]interface{}{
				"kind":   "summary-photo",
				"street": street,
				"order":  order + 1,
				"tags":   dict.Names(p.Tags),
			},
		})
	}
}
