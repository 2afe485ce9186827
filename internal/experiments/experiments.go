// Package experiments regenerates every table and figure of the paper's
// evaluation section (Section 5) over the synthetic cities of
// internal/datagen. Each experiment is a runner that returns a structured
// result plus a printer that renders it in the shape of the paper's
// artifact; cmd/soibench and the repository benchmarks drive them.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/diversify"
	"repro/internal/network"
)

// Epsilon is the paper's distance threshold: 0.0005° ≈ 55 m.
const Epsilon = 0.0005

// Rho is the paper's spatial-relevance radius: 0.0001°.
const Rho = 0.0001

// KeywordProgression is the paper's Table 4 keyword prefix set.
var KeywordProgression = []string{"religion", "education", "food", "services"}

// City bundles a generated dataset with its warmed k-SOI index.
type City struct {
	Dataset *datagen.Dataset
	Index   *core.Index
}

// Name returns the city name.
func (c *City) Name() string { return c.Dataset.Profile.Name }

// LoadCity generates the profile at the given scale, builds the index and
// warms the ε-plan SOI and BL both read, so building it is not billed to
// the first query an experiment times.
func LoadCity(p datagen.Profile, scale float64) (*City, error) {
	ds, err := datagen.Generate(datagen.Scale(p, scale))
	if err != nil {
		return nil, err
	}
	ix, err := core.NewIndex(ds.Network, ds.POIs, core.IndexConfig{CellSize: Epsilon})
	if err != nil {
		return nil, err
	}
	ix.Warm(Epsilon)
	return &City{Dataset: ds, Index: ix}, nil
}

// LoadCitiesNamed loads the named subset of the paper cities (case
// insensitive, surrounding whitespace ignored) at the given scale.
func LoadCitiesNamed(names []string, scale float64) ([]*City, error) {
	profiles := map[string]datagen.Profile{}
	for _, p := range datagen.Profiles() {
		profiles[strings.ToLower(p.Name)] = p
	}
	var out []*City
	for _, raw := range names {
		name := strings.ToLower(strings.TrimSpace(raw))
		if name == "" {
			continue
		}
		p, ok := profiles[name]
		if !ok {
			return nil, fmt.Errorf("experiments: unknown city %q", raw)
		}
		c, err := LoadCity(p, scale)
		if err != nil {
			return nil, fmt.Errorf("experiments: loading %s: %w", p.Name, err)
		}
		out = append(out, c)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("experiments: no cities selected")
	}
	return out, nil
}

// medianOf repeats f trials times and returns the median duration.
func medianOf(trials int, f func()) time.Duration {
	if trials < 1 {
		trials = 1
	}
	ds := make([]time.Duration, trials)
	for i := range ds {
		start := time.Now()
		f()
		ds[i] = time.Since(start)
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[trials/2]
}

// ms renders a duration in milliseconds with two decimals.
func ms(d time.Duration) string {
	return fmt.Sprintf("%.2f", float64(d.Microseconds())/1000)
}

// descriptionContext builds the diversification context for the city's
// designated photo street (the densest planted street, the analogue of
// the paper's "top SOI" whose photos drive Section 5's description
// experiments).
func descriptionContext(c *City) (*diversify.Context, *network.Street, error) {
	st := c.Dataset.Network.StreetByName(c.Dataset.Truth.PhotoStreet)
	if st == nil {
		return nil, nil, fmt.Errorf("experiments: photo street %q missing in %s",
			c.Dataset.Truth.PhotoStreet, c.Name())
	}
	rs, maxD := diversify.ExtractStreetPhotos(c.Dataset.Network, st.ID, c.Dataset.Photos, Epsilon)
	freq := diversify.FreqFromPhotos(c.Dataset.Dict, rs)
	ctx, err := diversify.NewContext(rs, freq, maxD, Rho)
	if err != nil {
		return nil, nil, fmt.Errorf("experiments: %s photo street context: %w", c.Name(), err)
	}
	return ctx, st, nil
}

// line writes one formatted line, ignoring write errors (experiment
// output goes to a terminal or a buffer).
func line(w io.Writer, format string, args ...interface{}) {
	fmt.Fprintf(w, format+"\n", args...)
}
