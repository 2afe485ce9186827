package main

import (
	"fmt"
	"strconv"

	"repro/internal/datagen"
)

// world names a synthetic city at a volume scale. The servers generate
// or snapshot it from the same profile (cmd/soibuild, cmd/soiserve
// -city/-scale), and the driver regenerates it in-process from
// internal/datagen to derive requests and to check answers against, so
// both sides hold the same data without sharing a byte.
type world struct {
	city  string
	scale float64
}

func (w world) profile() (datagen.Profile, error) {
	var p datagen.Profile
	switch w.city {
	case "berlin":
		p = datagen.Berlin()
	case "vienna":
		p = datagen.Vienna()
	case "small":
		// cmd/soibuild and cmd/soiserve build "small" as Small(1).
		p = datagen.Small(1)
	default:
		return p, fmt.Errorf("unknown city %q", w.city)
	}
	return datagen.Scale(p, w.scale), nil
}

func (w world) generate() (*datagen.Dataset, error) {
	p, err := w.profile()
	if err != nil {
		return nil, err
	}
	return datagen.Generate(p)
}

// args are the flags that make cmd/soibuild or cmd/soiserve load w.
func (w world) args() []string {
	return []string{"-city", w.city, "-scale", strconv.FormatFloat(w.scale, 'g', -1, 64)}
}

func (w world) String() string { return fmt.Sprintf("%s@%g", w.city, w.scale) }

// categories lists the keywords the generator assigns to POIs: the
// profile's categories plus the planted "shop".
func categories(p datagen.Profile) []string {
	out := make([]string, 0, len(p.Categories)+1)
	for _, c := range p.Categories {
		out = append(out, c.Name)
	}
	return append(out, "shop")
}
