package geojson

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/core"
	"repro/internal/diversify"
	"repro/internal/geo"
	"repro/internal/network"
	"repro/internal/photo"
	"repro/internal/vocab"
)

func testNetwork(t *testing.T) *network.Network {
	t.Helper()
	b := network.NewBuilder()
	b.AddStreet("Main", []geo.Point{geo.Pt(0, 0), geo.Pt(1, 0), geo.Pt(2, 0)})
	b.AddStreet("Side", []geo.Point{geo.Pt(2, 0), geo.Pt(2, 1)})
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// decode round-trips the collection through JSON and checks it is valid.
func decode(t *testing.T, fc *FeatureCollection) map[string]interface{} {
	t.Helper()
	var buf bytes.Buffer
	if err := fc.Write(&buf); err != nil {
		t.Fatal(err)
	}
	var out map[string]interface{}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if out["type"] != "FeatureCollection" {
		t.Fatalf("type = %v", out["type"])
	}
	return out
}

func TestEmptyCollection(t *testing.T) {
	fc := NewCollection()
	out := decode(t, fc)
	if feats := out["features"].([]interface{}); len(feats) != 0 {
		t.Fatalf("features = %v, want an empty array (not null)", feats)
	}
}

func TestAddStreets(t *testing.T) {
	net := testNetwork(t)
	fc := NewCollection()
	fc.AddStreets(net, []core.StreetResult{
		{Street: 0, Name: "Main", Interest: 42, Mass: 7},
		{Street: 1, Name: "Side", Interest: 10, Mass: 2},
	})
	out := decode(t, fc)
	feats := out["features"].([]interface{})
	if len(feats) != 2 {
		t.Fatalf("features = %d", len(feats))
	}
	first := feats[0].(map[string]interface{})
	props := first["properties"].(map[string]interface{})
	if props["rank"].(float64) != 1 || props["name"] != "Main" {
		t.Fatalf("props = %v", props)
	}
	geom := first["geometry"].(map[string]interface{})
	if geom["type"] != "LineString" {
		t.Fatalf("geometry = %v", geom)
	}
	coords := geom["coordinates"].([]interface{})
	if len(coords) != 3 {
		t.Fatalf("Main has %d coordinates, want 3 (polyline points)", len(coords))
	}
}

func TestAddSummary(t *testing.T) {
	d := vocab.NewDictionary()
	rs := []photo.Photo{
		{ID: 0, Loc: geo.Pt(0.5, 0.1), Tags: d.InternAll([]string{"a", "b"})},
		{ID: 1, Loc: geo.Pt(0.7, 0.1), Tags: d.InternAll([]string{"c"})},
	}
	fc := NewCollection()
	fc.AddSummary("Main", rs, d, diversify.Result{Selected: []int{1, 0}})
	out := decode(t, fc)
	feats := out["features"].([]interface{})
	if len(feats) != 2 {
		t.Fatalf("features = %d", len(feats))
	}
	first := feats[0].(map[string]interface{})
	props := first["properties"].(map[string]interface{})
	if props["order"].(float64) != 1 || props["street"] != "Main" {
		t.Fatalf("props = %v", props)
	}
	tags := props["tags"].([]interface{})
	if len(tags) != 1 || tags[0] != "c" {
		t.Fatalf("tags = %v (selection order must be preserved)", tags)
	}
}
