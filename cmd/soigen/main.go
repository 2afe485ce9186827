// Command soigen generates a synthetic city dataset (road network, POIs,
// photos and ground truth) and writes it as CSV files.
//
// Usage:
//
//	soigen -city berlin -scale 0.1 -out ./data/berlin
//
// The output directory receives streets.csv, pois.csv, photos.csv and
// groundtruth.txt; soibuild -data compiles it into the binary index
// snapshot soiserve -index memory-maps (soibuild -city does both steps in
// one).
//
// With -traces N the directory additionally receives traces.geojson: N
// synthetic movement traces (jittered random walks over the street
// network) for exercising the trajectory query family
// (POST /api/trajectories/soi).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/datagen"
	"repro/internal/dataio"
	"repro/internal/geojson"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("soigen: ")
	var (
		city   = flag.String("city", "berlin", "city profile: london, berlin, vienna, or small")
		scale  = flag.Float64("scale", 1.0, "volume scale factor applied to the profile")
		seed   = flag.Int64("seed", 0, "override the profile seed (0 keeps the default)")
		out    = flag.String("out", ".", "output directory")
		traces = flag.Int("traces", 0, "also write this many synthetic movement traces as traces.geojson (random walks over the street network)")
	)
	flag.Parse()

	profile, err := datagen.ProfileByName(*city)
	if err != nil {
		log.Fatalf("%v (want london, berlin, vienna, or small)", err)
	}
	if *seed != 0 {
		profile.Seed = *seed
	}
	profile = datagen.Scale(profile, *scale)

	ds, err := datagen.Generate(profile)
	if err != nil {
		log.Fatalf("generating %s: %v", profile.Name, err)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		log.Fatal(err)
	}
	if err := writeFile(filepath.Join(*out, "streets.csv"), func(w *bufio.Writer) error {
		return dataio.WriteNetwork(w, ds.Network)
	}); err != nil {
		log.Fatal(err)
	}
	if err := writeFile(filepath.Join(*out, "pois.csv"), func(w *bufio.Writer) error {
		return dataio.WritePOIs(w, ds.POIs)
	}); err != nil {
		log.Fatal(err)
	}
	if err := writeFile(filepath.Join(*out, "photos.csv"), func(w *bufio.Writer) error {
		return dataio.WritePhotos(w, ds.Photos)
	}); err != nil {
		log.Fatal(err)
	}
	if err := writeFile(filepath.Join(*out, "groundtruth.txt"), func(w *bufio.Writer) error {
		fmt.Fprintf(w, "photo_street: %s\n", ds.Truth.PhotoStreet)
		fmt.Fprintf(w, "shopping_streets: %s\n", strings.Join(ds.Truth.ShoppingStreets, "; "))
		fmt.Fprintf(w, "source_1: %s\n", strings.Join(ds.Truth.SourceLists[0], "; "))
		fmt.Fprintf(w, "source_2: %s\n", strings.Join(ds.Truth.SourceLists[1], "; "))
		return nil
	}); err != nil {
		log.Fatal(err)
	}
	if *traces > 0 {
		walks := datagen.Traces(ds.Network, profile.Seed, *traces)
		if err := writeFile(filepath.Join(*out, "traces.geojson"), func(w *bufio.Writer) error {
			fc := geojson.NewCollection()
			fc.AddTraces(walks)
			return fc.Write(w)
		}); err != nil {
			log.Fatal(err)
		}
	}
	st := ds.Network.Stats()
	fmt.Printf("%s: %d streets, %d segments, %d POIs, %d photos -> %s\n",
		profile.Name, st.NumStreets, st.NumSegments, ds.POIs.Len(), ds.Photos.Len(), *out)
}

func writeFile(path string, fill func(*bufio.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := fill(w); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
