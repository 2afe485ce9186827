package dataio

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/datagen"
	"repro/internal/geo"
	"repro/internal/network"
	"repro/internal/photo"
	"repro/internal/poi"
	"repro/internal/vocab"
)

func TestNetworkRoundTrip(t *testing.T) {
	b := network.NewBuilder()
	b.AddStreet("Main, St", []geo.Point{geo.Pt(0, 0), geo.Pt(1.5, 0.25), geo.Pt(2, 1)})
	b.AddStreet("Side", []geo.Point{geo.Pt(2, 1), geo.Pt(2, 2)})
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteNetwork(&buf, net); err != nil {
		t.Fatal(err)
	}
	got, err := ReadNetwork(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumStreets() != net.NumStreets() || got.NumSegments() != net.NumSegments() {
		t.Fatalf("round trip: %d/%d streets, %d/%d segments",
			got.NumStreets(), net.NumStreets(), got.NumSegments(), net.NumSegments())
	}
	// The CSV-quoted comma in the street name survives.
	if got.StreetByName("Main, St") == nil {
		t.Fatal("street name with comma lost")
	}
	for i := 0; i < net.NumSegments(); i++ {
		a := net.Segment(uint32(i)).Geom
		bseg := got.Segment(uint32(i)).Geom
		if a != bseg {
			t.Fatalf("segment %d geometry changed: %v vs %v", i, a, bseg)
		}
	}
}

func TestPOIRoundTrip(t *testing.T) {
	pb := poi.NewBuilder(nil)
	pb.AddWeighted(geo.Pt(1.25, -3.5), []string{"shop", "food"}, 2.5)
	pb.Add(geo.Pt(0, 0), nil)
	c := pb.Build()
	var buf bytes.Buffer
	if err := WritePOIs(&buf, c); err != nil {
		t.Fatal(err)
	}
	got, err := ReadPOIs(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 {
		t.Fatalf("Len = %d", got.Len())
	}
	p := got.Get(0)
	if p.Loc != geo.Pt(1.25, -3.5) || p.Weight != 2.5 || p.Keywords.Len() != 2 {
		t.Fatalf("POI 0 = %+v", p)
	}
	if got.Get(1).Keywords.Len() != 0 {
		t.Fatal("empty keywords not preserved")
	}
}

func TestPhotoRoundTrip(t *testing.T) {
	pb := photo.NewBuilder(nil)
	pb.Add(geo.Pt(7, 8), []string{"oxford", "night"})
	c := pb.Build()
	var buf bytes.Buffer
	if err := WritePhotos(&buf, c); err != nil {
		t.Fatal(err)
	}
	got, err := ReadPhotos(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 1 || got.Get(0).Tags.Len() != 2 {
		t.Fatalf("round trip = %+v", got.Get(0))
	}
}

func TestSharedDictionaryRoundTrip(t *testing.T) {
	ds, err := datagen.Generate(datagen.Scale(datagen.Small(1), 0.1))
	if err != nil {
		t.Fatal(err)
	}
	var nb, pb, rb bytes.Buffer
	if err := WriteNetwork(&nb, ds.Network); err != nil {
		t.Fatal(err)
	}
	if err := WritePOIs(&pb, ds.POIs); err != nil {
		t.Fatal(err)
	}
	if err := WritePhotos(&rb, ds.Photos); err != nil {
		t.Fatal(err)
	}
	dict := vocab.NewDictionary()
	pois, err := ReadPOIs(&pb, dict)
	if err != nil {
		t.Fatal(err)
	}
	photos, err := ReadPhotos(&rb, dict)
	if err != nil {
		t.Fatal(err)
	}
	if pois.Dict() != dict || photos.Dict() != dict {
		t.Fatal("dictionary not shared")
	}
	if pois.Len() != ds.POIs.Len() || photos.Len() != ds.Photos.Len() {
		t.Fatal("counts changed in round trip")
	}
	// Keyword membership is preserved (set ids differ across
	// dictionaries, so compare sorted name lists).
	for i := 0; i < pois.Len(); i++ {
		want := ds.Dict.Names(ds.POIs.Get(uint32(i)).Keywords)
		got := dict.Names(pois.Get(uint32(i)).Keywords)
		sort.Strings(want)
		sort.Strings(got)
		if strings.Join(got, "|") != strings.Join(want, "|") {
			t.Fatalf("POI %d keywords %v != %v", i, got, want)
		}
	}
}

func TestReadNetworkErrors(t *testing.T) {
	cases := []struct {
		name string
		csv  string
	}{
		{"too few fields", "a,1,2\n"},
		{"odd coordinates", "a,1,2,3\n"},
		{"bad x", "a,zzz,2,3,4\n"},
		{"bad y", "a,1,zzz,3,4\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ReadNetwork(strings.NewReader(tc.csv)); err == nil {
				t.Fatal("expected error")
			}
		})
	}
}

func TestReadPOIErrors(t *testing.T) {
	cases := []struct {
		name string
		csv  string
	}{
		{"wrong field count", "1,2,3\n"},
		{"bad x", "a,2,1,k\n"},
		{"bad y", "1,b,1,k\n"},
		{"bad weight", "1,2,w,k\n"},
		{"overflowing weight", "1,2,1e308,k\n"},
		{"negative weight", "1,2,-1,k\n"},
		{"NaN weight", "1,2,NaN,k\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ReadPOIs(strings.NewReader(tc.csv), nil); err == nil {
				t.Fatal("expected error")
			}
		})
	}
}

func TestReadPhotoErrors(t *testing.T) {
	cases := []struct {
		name string
		csv  string
	}{
		{"wrong field count", "1,2\n"},
		{"bad x", "a,2,k\n"},
		{"bad y", "1,b,k\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ReadPhotos(strings.NewReader(tc.csv), nil); err == nil {
				t.Fatal("expected error")
			}
		})
	}
}

func TestSeparatorInKeywordRejected(t *testing.T) {
	pb := poi.NewBuilder(nil)
	pb.Add(geo.Pt(0, 0), []string{"bad;keyword"})
	var buf bytes.Buffer
	if err := WritePOIs(&buf, pb.Build()); err == nil {
		t.Fatal("expected error for ';' in keyword")
	}
	rb := photo.NewBuilder(nil)
	rb.Add(geo.Pt(0, 0), []string{"also;bad"})
	if err := WritePhotos(&buf, rb.Build()); err == nil {
		t.Fatal("expected error for ';' in tag")
	}
}

func TestEmptyInputs(t *testing.T) {
	if _, err := ReadPOIs(strings.NewReader(""), nil); err != nil {
		t.Fatalf("empty pois: %v", err)
	}
	if _, err := ReadPhotos(strings.NewReader(""), nil); err != nil {
		t.Fatalf("empty photos: %v", err)
	}
	if _, err := ReadNetwork(strings.NewReader("")); err == nil {
		// An empty network has no streets; the builder currently permits
		// this, so reading succeeds with zero streets.
		return
	}
}

// Random inputs must never panic the parsers; errors are acceptable.
func TestParsersNeverPanic(t *testing.T) {
	f := func(raw []byte) bool {
		s := string(raw)
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("ReadNetwork panicked on %q: %v", s, r)
				}
			}()
			_, _ = ReadNetwork(strings.NewReader(s))
		}()
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("ReadPOIs panicked on %q: %v", s, r)
				}
			}()
			_, _ = ReadPOIs(strings.NewReader(s), nil)
		}()
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("ReadPhotos panicked on %q: %v", s, r)
				}
			}()
			_, _ = ReadPhotos(strings.NewReader(s), nil)
		}()
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestLoadDir(t *testing.T) {
	ds, err := datagen.Generate(datagen.Scale(datagen.Small(2), 0.3))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	write := func(name string, fill func(io.Writer) error) {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := fill(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	write("streets.csv", func(w io.Writer) error { return WriteNetwork(w, ds.Network) })
	write("pois.csv", func(w io.Writer) error { return WritePOIs(w, ds.POIs) })
	write("photos.csv", func(w io.Writer) error { return WritePhotos(w, ds.Photos) })

	net, pois, photos, dict, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if net.NumStreets() != ds.Network.NumStreets() {
		t.Fatalf("streets %d != %d", net.NumStreets(), ds.Network.NumStreets())
	}
	if pois.Len() != ds.POIs.Len() || photos.Len() != ds.Photos.Len() {
		t.Fatal("corpus sizes changed")
	}
	if pois.Dict() != dict || photos.Dict() != dict {
		t.Fatal("dictionary not shared")
	}
}

func TestLoadDirMissingFiles(t *testing.T) {
	if _, _, _, _, err := LoadDir(t.TempDir()); err == nil {
		t.Fatal("expected error for empty dir")
	}
}
