// Package dataio persists road networks, POI corpora and photo corpora as
// CSV files, the interchange format of the repository's command-line
// tools. The formats are line-oriented and human-inspectable:
//
//	streets.csv:  street_name,x1,y1,x2,y2,...   (one polyline per line)
//	pois.csv:     x,y,weight,kw1;kw2;...
//	photos.csv:   x,y,tag1;tag2;...
//
// Keywords use ';' as an internal separator and therefore must not
// contain it; writers reject such values instead of corrupting the file.
package dataio

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/datagen"
	"repro/internal/geo"
	"repro/internal/network"
	"repro/internal/photo"
	"repro/internal/poi"
	"repro/internal/vocab"
)

// WriteNetwork writes the street polylines of a network as CSV.
func WriteNetwork(w io.Writer, net *network.Network) error {
	cw := csv.NewWriter(w)
	for _, st := range net.Streets() {
		rec := []string{st.Name}
		first := net.Segment(st.Segments[0])
		rec = append(rec, fmtF(first.Geom.A.X), fmtF(first.Geom.A.Y))
		for _, sid := range st.Segments {
			p := net.Segment(sid).Geom.B
			rec = append(rec, fmtF(p.X), fmtF(p.Y))
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("dataio: write street %q: %w", st.Name, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadNetwork parses a streets CSV back into a network.
func ReadNetwork(r io.Reader) (*network.Network, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	b := network.NewBuilder()
	line := 0
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dataio: streets line %d: %w", line+1, err)
		}
		line++
		if len(rec) < 5 || len(rec)%2 == 0 {
			return nil, fmt.Errorf("dataio: streets line %d: want name plus ≥2 coordinate pairs, got %d fields", line, len(rec))
		}
		pts := make([]geo.Point, 0, (len(rec)-1)/2)
		for i := 1; i < len(rec); i += 2 {
			x, err := strconv.ParseFloat(rec[i], 64)
			if err != nil {
				return nil, fmt.Errorf("dataio: streets line %d field %d: %w", line, i+1, err)
			}
			y, err := strconv.ParseFloat(rec[i+1], 64)
			if err != nil {
				return nil, fmt.Errorf("dataio: streets line %d field %d: %w", line, i+2, err)
			}
			pts = append(pts, geo.Pt(x, y))
		}
		b.AddStreet(rec[0], pts)
	}
	return b.Build()
}

// WritePOIs writes a POI corpus as CSV.
func WritePOIs(w io.Writer, c *poi.Corpus) error {
	cw := csv.NewWriter(w)
	for _, p := range c.All() {
		kws, err := joinKeywords(c.Dict(), p.Keywords)
		if err != nil {
			return fmt.Errorf("dataio: POI %d: %w", p.ID, err)
		}
		rec := []string{fmtF(p.Loc.X), fmtF(p.Loc.Y), fmtF(p.Weight), kws}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("dataio: write POI %d: %w", p.ID, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadPOIs parses a POIs CSV into a corpus using the given dictionary (a
// fresh one when nil).
func ReadPOIs(r io.Reader, dict *vocab.Dictionary) (*poi.Corpus, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = 4
	b := poi.NewBuilder(dict)
	line := 0
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dataio: pois line %d: %w", line+1, err)
		}
		line++
		x, err := strconv.ParseFloat(rec[0], 64)
		if err != nil {
			return nil, fmt.Errorf("dataio: pois line %d: bad x: %w", line, err)
		}
		y, err := strconv.ParseFloat(rec[1], 64)
		if err != nil {
			return nil, fmt.Errorf("dataio: pois line %d: bad y: %w", line, err)
		}
		wt, err := strconv.ParseFloat(rec[2], 64)
		if err != nil {
			return nil, fmt.Errorf("dataio: pois line %d: bad weight: %w", line, err)
		}
		b.AddWeighted(geo.Pt(x, y), splitKeywords(rec[3]), wt)
	}
	return b.Build(), nil
}

// WritePhotos writes a photo corpus as CSV.
func WritePhotos(w io.Writer, c *photo.Corpus) error {
	cw := csv.NewWriter(w)
	for _, p := range c.All() {
		tags, err := joinKeywords(c.Dict(), p.Tags)
		if err != nil {
			return fmt.Errorf("dataio: photo %d: %w", p.ID, err)
		}
		rec := []string{fmtF(p.Loc.X), fmtF(p.Loc.Y), tags}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("dataio: write photo %d: %w", p.ID, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadPhotos parses a photos CSV into a corpus using the given dictionary
// (a fresh one when nil).
func ReadPhotos(r io.Reader, dict *vocab.Dictionary) (*photo.Corpus, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = 3
	b := photo.NewBuilder(dict)
	line := 0
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dataio: photos line %d: %w", line+1, err)
		}
		line++
		x, err := strconv.ParseFloat(rec[0], 64)
		if err != nil {
			return nil, fmt.Errorf("dataio: photos line %d: bad x: %w", line, err)
		}
		y, err := strconv.ParseFloat(rec[1], 64)
		if err != nil {
			return nil, fmt.Errorf("dataio: photos line %d: bad y: %w", line, err)
		}
		b.Add(geo.Pt(x, y), splitKeywords(rec[2]))
	}
	return b.Build(), nil
}

func fmtF(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func joinKeywords(d *vocab.Dictionary, s vocab.Set) (string, error) {
	names := make([]string, len(s))
	for i, id := range s {
		n := d.Name(id)
		if strings.ContainsRune(n, ';') {
			return "", fmt.Errorf("keyword %q contains the ';' separator", n)
		}
		names[i] = n
	}
	return strings.Join(names, ";"), nil
}

func splitKeywords(s string) []string {
	if s == "" {
		return nil
	}
	return strings.Split(s, ";")
}

// LoadDir reads a dataset directory produced by soigen (streets.csv,
// pois.csv, photos.csv), sharing one dictionary between the POI and
// photo corpora.
func LoadDir(dir string) (*network.Network, *poi.Corpus, *photo.Corpus, *vocab.Dictionary, error) {
	net, err := loadWith(filepath.Join(dir, "streets.csv"), func(r io.Reader) (*network.Network, error) {
		return ReadNetwork(r)
	})
	if err != nil {
		return nil, nil, nil, nil, err
	}
	dict := vocab.NewDictionary()
	pois, err := loadWith(filepath.Join(dir, "pois.csv"), func(r io.Reader) (*poi.Corpus, error) {
		return ReadPOIs(r, dict)
	})
	if err != nil {
		return nil, nil, nil, nil, err
	}
	photos, err := loadWith(filepath.Join(dir, "photos.csv"), func(r io.Reader) (*photo.Corpus, error) {
		return ReadPhotos(r, dict)
	})
	if err != nil {
		return nil, nil, nil, nil, err
	}
	return net, pois, photos, dict, nil
}

// Load resolves a dataset the way the command-line tools name one: the
// CSV directory dir (see LoadDir), or else the synthetic datagen city at
// scale, generated from the profile's own seed unless seed is not 0.
// Naming both, or neither, is an error.
func Load(city string, scale float64, seed int64, dir string) (*network.Network, *poi.Corpus, *photo.Corpus, error) {
	switch {
	case dir != "" && city != "":
		return nil, nil, nil, fmt.Errorf("-city and -data are mutually exclusive")
	case dir != "":
		net, pois, photos, _, err := LoadDir(dir)
		return net, pois, photos, err
	case city == "":
		return nil, nil, nil, fmt.Errorf("provide -city or -data")
	}
	p, err := datagen.ProfileByName(city)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("%v (want london, berlin, vienna, or small)", err)
	}
	if seed != 0 {
		p.Seed = seed
	}
	ds, err := datagen.Generate(datagen.Scale(p, scale))
	if err != nil {
		return nil, nil, nil, err
	}
	return ds.Network, ds.POIs, ds.Photos, nil
}

func loadWith[T any](path string, read func(io.Reader) (T, error)) (T, error) {
	var zero T
	f, err := os.Open(path)
	if err != nil {
		return zero, err
	}
	defer f.Close()
	v, err := read(bufio.NewReader(f))
	if err != nil {
		return zero, fmt.Errorf("%s: %w", path, err)
	}
	return v, nil
}
