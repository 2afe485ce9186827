package grid_test

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/geo"
	"repro/internal/grid"
	"repro/internal/oracle"
	"repro/internal/poi"
	"repro/internal/vocab"
)

// slabWorkers are the worker counts every differential case is built at.
var slabWorkers = []int{1, 2, 8}

// referenceSlab is the construction BuildSlab is held to, written from
// the Slab field contracts in slab.go alone: one sequential pass per cell
// over every object, sharing nothing with buildslab.go but the cell
// assignment (Lattice.CellIndex). It is quadratic on purpose; only tests
// and small worlds run it.
func referenceSlab(cfg grid.Config, locs []geo.Point, keys []vocab.Set, weights []float64) (*grid.Slab, error) {
	bounds := cfg.Bounds
	if bounds == (geo.Rect{}) {
		for i, p := range locs {
			r := geo.Rect{MinX: p.X, MinY: p.Y, MaxX: p.X, MaxY: p.Y}
			if i == 0 {
				bounds = r
			} else {
				bounds = bounds.Union(r)
			}
		}
	}
	lat, err := grid.NewLattice(bounds, cfg.CellSize)
	if err != nil {
		return nil, err
	}
	n := len(locs)
	s := &grid.Slab{
		Bounds: lat.Bounds, CellSize: lat.CellSize, NX: lat.NX, NY: lat.NY, NumObjects: n,
		ObjX: make([]float64, n), ObjY: make([]float64, n), ObjW: make([]float64, n),
		MemberOff: []uint32{0}, KwOff: []uint32{0}, PostOff: []uint32{0}, InvOff: []uint32{0},
	}
	cellOf := make([]int32, n)
	for i, p := range locs {
		s.ObjX[i], s.ObjY[i], s.ObjW[i] = p.X, p.Y, 1
		if weights != nil {
			s.ObjW[i] = weights[i]
		}
		cellOf[i] = int32(lat.CellIndex(p))
	}
	keysOf := func(m uint32) vocab.Set {
		if keys == nil {
			return nil
		}
		return keys[m]
	}
	s.CellIDs = slices.Clone(cellOf)
	slices.Sort(s.CellIDs)
	s.CellIDs = slices.Compact(s.CellIDs)

	type invEntry struct {
		ord    int32
		weight float64
	}
	var inv [][]invEntry // by keyword, in ascending cell order
	for ord, id := range s.CellIDs {
		var members []uint32
		var kws []vocab.ID
		psiMin, psiMax, total := math.MaxInt, 0, 0.0
		for m := range locs {
			if cellOf[m] == id {
				ks := keysOf(uint32(m))
				members = append(members, uint32(m))
				kws = append(kws, ks...)
				psiMin, psiMax = min(psiMin, len(ks)), max(psiMax, len(ks))
				total += s.ObjW[m]
			}
		}
		s.PsiMin = append(s.PsiMin, int32(psiMin))
		s.PsiMax = append(s.PsiMax, int32(psiMax))
		s.CellWeight = append(s.CellWeight, total)
		s.Members = append(s.Members, members...)
		s.MemberOff = append(s.MemberOff, uint32(len(s.Members)))
		for _, kw := range vocab.NewSet(kws) {
			weight := 0.0
			for _, m := range members {
				if slices.Contains(keysOf(m), kw) {
					s.Postings = append(s.Postings, m)
					weight += s.ObjW[m]
				}
			}
			s.CellKw = append(s.CellKw, uint32(kw))
			s.PostOff = append(s.PostOff, uint32(len(s.Postings)))
			for len(inv) <= int(kw) {
				inv = append(inv, nil)
			}
			inv[kw] = append(inv[kw], invEntry{int32(ord), weight})
		}
		s.KwOff = append(s.KwOff, uint32(len(s.CellKw)))
	}
	s.VocabN = len(inv)
	for _, es := range inv {
		// Stable, so equal weights stay in ascending cell order.
		slices.SortStableFunc(es, func(a, b invEntry) int { return cmp.Compare(b.weight, a.weight) })
		for _, e := range es {
			s.InvCell = append(s.InvCell, e.ord)
			s.InvWeight = append(s.InvWeight, e.weight)
		}
		s.InvOff = append(s.InvOff, uint32(len(s.InvCell)))
	}
	return s, nil
}

// corpusArrays lays a POI corpus out as the builders' parallel slices.
func corpusArrays(pois *poi.Corpus) ([]geo.Point, []vocab.Set, []float64) {
	all := pois.All()
	locs := make([]geo.Point, len(all))
	keys := make([]vocab.Set, len(all))
	weights := make([]float64, len(all))
	for i := range all {
		locs[i], keys[i], weights[i] = all[i].Loc, all[i].Keywords, all[i].Weight
	}
	return locs, keys, weights
}

// checkBuildSlab fails unless BuildSlab, at every worker count, encodes to
// the reference construction's bytes and validates.
func checkBuildSlab(t testing.TB, label string, cfg grid.Config, locs []geo.Point, keys []vocab.Set, weights []float64) {
	t.Helper()
	ref, err := referenceSlab(cfg, locs, keys, weights)
	if err != nil {
		t.Fatalf("%s: reference build: %v", label, err)
	}
	want := ref.AppendBinary(nil)
	for _, workers := range slabWorkers {
		s, err := grid.BuildSlabWithWorkers(cfg, locs, keys, weights, workers)
		if err != nil {
			t.Fatalf("%s workers=%d: BuildSlab: %v", label, workers, err)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("%s workers=%d: Validate: %v", label, workers, err)
		}
		if got := s.AppendBinary(nil); !bytes.Equal(got, want) {
			t.Fatalf("%s workers=%d: BuildSlab encodes to %d bytes that differ from the reference's %d",
				label, workers, len(got), len(want))
		}
	}
}

// forMatrixWorlds calls fn on every build input the differential cases
// draw from the oracle's world matrix: seeds 0..5, each world weighted and
// unweighted, at two cell sizes.
func forMatrixWorlds(t *testing.T, fn func(label string, cfg grid.Config, locs []geo.Point, keys []vocab.Set, weights []float64)) {
	t.Helper()
	for seed := int64(0); seed < 6; seed++ {
		for _, c := range oracle.MatrixConfigs(seed, false) {
			w, err := c.BuildWorld()
			if err != nil {
				t.Fatal(err)
			}
			_, pois, _, _, err := w.Build()
			if err != nil {
				t.Fatal(err)
			}
			locs, keys, weights := corpusArrays(pois)
			for i := range weights {
				weights[i] += float64(i%7) / 8
			}
			for _, cell := range []float64{0.0005, 0.00013} {
				fn(fmt.Sprintf("%s cell=%g weighted", c.Label(), cell), grid.Config{CellSize: cell}, locs, keys, weights)
				fn(fmt.Sprintf("%s cell=%g unweighted", c.Label(), cell), grid.Config{CellSize: cell}, locs, keys, nil)
			}
		}
	}
}

// TestGoldenSlabBytes pins BuildSlab's output as bytes: one FNV-64a over
// the length-prefixed AppendBinary encoding of every matrix world's slab,
// then of Berlin 0.1's slab as core.BuildSlab builds it for serving and
// for soibuild. A refactor of the grid package must pass with the literal
// as it is; only a deliberate change of the slab format or of the cell
// assignment may edit it.
func TestGoldenSlabBytes(t *testing.T) {
	const want uint64 = 0x3c93411b07c1a22c
	h := fnv.New64a()
	put := func(s *grid.Slab) {
		enc := s.AppendBinary(nil)
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], uint64(len(enc)))
		h.Write(n[:])
		h.Write(enc)
	}
	forMatrixWorlds(t, func(label string, cfg grid.Config, locs []geo.Point, keys []vocab.Set, weights []float64) {
		s, err := grid.BuildSlab(cfg, locs, keys, weights)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		put(s)
	})
	ds, err := datagen.Generate(datagen.Scale(datagen.Berlin(), 0.1))
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.BuildSlab(ds.Network, ds.POIs, core.IndexConfig{CellSize: 0.0005})
	if err != nil {
		t.Fatal(err)
	}
	put(s)
	if got := h.Sum64(); got != want {
		t.Fatalf("slab bytes hash %#x, want %#x", got, want)
	}
}

// TestBuildSlabMatchesGridBuild: over the oracle's world matrix, weighted
// and not, at two cell sizes, BuildSlab is byte-identical to the reference
// construction for every worker count.
func TestBuildSlabMatchesGridBuild(t *testing.T) {
	forMatrixWorlds(t, func(label string, cfg grid.Config, locs []geo.Point, keys []vocab.Set, weights []float64) {
		checkBuildSlab(t, label, cfg, locs, keys, weights)
	})
	// One world above the size at which BuildSlab itself goes parallel.
	locs, keys, weights := slabWorld(3, grid.ParallelBuildThreshold+1500, 20)
	checkBuildSlab(t, "random world", grid.Config{CellSize: 3}, locs, keys, weights)
	s, err := grid.BuildSlab(grid.Config{CellSize: 3}, locs, keys, weights)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := referenceSlab(grid.Config{CellSize: 3}, locs, keys, weights)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(s.AppendBinary(nil), ref.AppendBinary(nil)) {
		t.Fatal("BuildSlab at GOMAXPROCS differs from the reference")
	}
}

// TestBuildSlabDegenerateWorlds covers the shapes the matrix never draws.
func TestBuildSlabDegenerateWorlds(t *testing.T) {
	set := func(ids ...vocab.ID) vocab.Set { return vocab.NewSet(ids) }
	pinned := geo.Rect{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10}
	cases := []struct {
		name    string
		cfg     grid.Config
		locs    []geo.Point
		keys    []vocab.Set
		weights []float64
	}{
		{name: "empty corpus", cfg: grid.Config{CellSize: 1}},
		{name: "empty corpus, pinned bounds", cfg: grid.Config{CellSize: 1, Bounds: pinned}},
		{
			name: "every POI in one cell",
			cfg:  grid.Config{CellSize: 100},
			locs: []geo.Point{{X: 1, Y: 1}, {X: 2, Y: 3}, {X: 5, Y: 8}, {X: 3, Y: 3}},
			keys: []vocab.Set{set(0, 1), set(1), set(2, 0), set(1, 2)}, weights: []float64{1, 2, 0.5, 4},
		},
		{
			name: "outside pinned bounds, clamped to border cells",
			cfg:  grid.Config{CellSize: 2, Bounds: pinned},
			locs: []geo.Point{{X: -50, Y: 5}, {X: 50, Y: 5}, {X: 5, Y: -50}, {X: 5, Y: 50}, {X: -1, Y: -1}, {X: 11, Y: 11}, {X: 5, Y: 5}},
			keys: []vocab.Set{set(0), set(0), set(1), set(1), set(0, 1), set(2), set(0, 2)},
		},
		{
			name: "no keyword sets at all",
			cfg:  grid.Config{CellSize: 1},
			locs: []geo.Point{{X: 0, Y: 0}, {X: 3, Y: 3}, {X: 0.5, Y: 0.5}},
		},
		{
			name: "keyword-less POIs among tagged ones",
			cfg:  grid.Config{CellSize: 1},
			locs: []geo.Point{{X: 0, Y: 0}, {X: 0.2, Y: 0.1}, {X: 3, Y: 3}, {X: 3.5, Y: 3.5}},
			keys: []vocab.Set{nil, set(4), nil, nil}, weights: []float64{2, 3, 5, 7},
		},
		{
			name: "duplicate locations",
			cfg:  grid.Config{CellSize: 0.5},
			locs: []geo.Point{{X: 1, Y: 1}, {X: 1, Y: 1}, {X: 1, Y: 1}, {X: 2, Y: 2}, {X: 2, Y: 2}},
			keys: []vocab.Set{set(0), set(0), set(1), set(0), set(0)}, weights: []float64{1, 1, 1, 1, 1},
		},
		{
			name: "keyword id gap",
			cfg:  grid.Config{CellSize: 1},
			locs: []geo.Point{{X: 0, Y: 0}, {X: 4, Y: 4}, {X: 4.5, Y: 4.5}},
			keys: []vocab.Set{set(0), set(9, 40), set(40)},
		},
		{
			name: "equal weights tie on cell order",
			cfg:  grid.Config{CellSize: 1},
			locs: []geo.Point{{X: 5, Y: 5}, {X: 0, Y: 0}, {X: 3, Y: 1}, {X: 1, Y: 3}},
			keys: []vocab.Set{set(0), set(0), set(0), set(0)}, weights: []float64{2, 2, 2, 2},
		},
	}
	for _, c := range cases {
		checkBuildSlab(t, c.name, c.cfg, c.locs, c.keys, c.weights)
		if c.name != "keyword id gap" {
			continue
		}
		s, err := grid.BuildSlab(c.cfg, c.locs, c.keys, nil)
		if err != nil {
			t.Fatal(err)
		}
		if s.VocabN != 41 || s.InvOff[10] != s.InvOff[40] {
			t.Fatalf("keyword id gap: VocabN = %d, InvOff[10..40] = %d..%d; want 41 and an empty span", s.VocabN, s.InvOff[10], s.InvOff[40])
		}
	}
}

// TestBuildSlabRejectsWhatNewSlabRejects: BuildSlab refuses malformed
// inputs: no cell size, keyword sets or weights that do not pair up with
// the locations, and inverted bounds. The Build/NewSlab shim bench/
// times refuses through the same checks and builds BuildSlab's bytes.
func TestBuildSlabRejectsWhatNewSlabRejects(t *testing.T) {
	locs := []geo.Point{{X: 0, Y: 0}, {X: 1, Y: 1}}
	if _, err := grid.BuildSlab(grid.Config{}, locs, nil, nil); err == nil {
		t.Error("zero cell size accepted")
	}
	if _, err := grid.BuildSlab(grid.Config{CellSize: 1}, locs, []vocab.Set{nil}, nil); err == nil {
		t.Error("mismatched keyword sets accepted")
	}
	if _, err := grid.BuildSlab(grid.Config{CellSize: 1}, locs, nil, []float64{1}); err == nil {
		t.Error("mismatched weights accepted")
	}
	if _, err := grid.BuildSlab(grid.Config{CellSize: 1, Bounds: geo.Rect{MinX: 1, MaxX: 0}}, locs, nil, nil); err == nil {
		t.Error("inverted bounds accepted")
	}
	if _, err := grid.Build(grid.Config{}, locs, nil); err == nil {
		t.Error("Build accepted a zero cell size")
	}
	wlocs, keys, weights := slabWorld(8, 300, 6)
	g, err := grid.Build(grid.Config{CellSize: 5}, wlocs, keys)
	if err != nil {
		t.Fatal(err)
	}
	s, err := grid.NewSlab(g, wlocs, weights)
	if err != nil {
		t.Fatal(err)
	}
	want, err := grid.BuildSlab(grid.Config{CellSize: 5}, wlocs, keys, weights)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(s.AppendBinary(nil), want.AppendBinary(nil)) {
		t.Error("NewSlab(Build(...)) differs from BuildSlab")
	}
}

// TestLatticeOverflowIsRefused: a lattice whose cell count exceeds the
// int32 id space — one far-away object is enough — used to wrap its cell
// ids, merging distinct cells; BuildSlab refuses it with ErrLattice, as it
// does a lattice with a non-finite dimension.
func TestLatticeOverflowIsRefused(t *testing.T) {
	near := []geo.Point{{X: 0, Y: 0}, {X: 0.01, Y: 0.01}}
	cfg := grid.Config{CellSize: 0.0005}
	// The last one spans 60,001 × 60,001 cells: each dimension fits an
	// int32, the product does not.
	for _, far := range []geo.Point{{X: 1e9, Y: 1e9}, {X: 1e300, Y: 1e300}, {X: math.Inf(1), Y: 0}, {X: 30, Y: 30}} {
		locs := append(append([]geo.Point(nil), near...), far)
		if _, err := grid.BuildSlab(cfg, locs, nil, nil); !errors.Is(err, grid.ErrLattice) {
			t.Errorf("BuildSlab with an object at %v: err = %v, want ErrLattice", far, err)
		}
	}
	// The largest lattices that do fit still build, sparsely.
	locs := append(append([]geo.Point(nil), near...), geo.Point{X: 23, Y: 23})
	checkBuildSlab(t, "46,001² cells", cfg, locs, nil, nil)
	if _, _, err := grid.Dims(geo.Rect{MaxX: 1, MaxY: 1}, 0.5); err != nil {
		t.Errorf("Dims of a 3×3 lattice: %v", err)
	}
}

// decodeFuzzWorld turns fuzz bytes into a small world: a header byte of
// switches, then five bytes per object — position on a 16×16 lattice of
// half-cells (so objects share cells and sit on cell borders), two keyword
// nibbles with a gap-making shift, and a weight.
func decodeFuzzWorld(data []byte) (cfg grid.Config, locs []geo.Point, keys []vocab.Set, weights []float64) {
	if len(data) == 0 {
		return grid.Config{CellSize: 1}, nil, nil, nil
	}
	flags := data[0]
	data = data[1:]
	cfg.CellSize = []float64{0.5, 1, 3, 0.25}[flags&3]
	if flags&4 != 0 {
		cfg.Bounds = geo.Rect{MinX: 1, MinY: 2, MaxX: 6, MaxY: 5}
	}
	for ; len(data) >= 5; data = data[5:] {
		locs = append(locs, geo.Point{X: float64(data[0]&15) / 2, Y: float64(data[1]&15) / 2})
		var ids []vocab.ID
		for _, nib := range []byte{data[2] & 15, data[2] >> 4, data[3] & 15} {
			if nib != 0 {
				ids = append(ids, vocab.ID(nib)<<(flags>>6))
			}
		}
		keys = append(keys, vocab.NewSet(ids))
		weights = append(weights, float64(data[4])/16)
	}
	if flags&8 != 0 {
		weights = nil
	}
	if flags&16 != 0 {
		keys = nil
	}
	return cfg, locs, keys, weights
}

// FuzzBuildSlab: on any byte-decoded world BuildSlab validates and is
// byte-identical to the reference construction at every worker count.
func FuzzBuildSlab(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{1, 3, 4, 0x21, 3, 16, 3, 4, 0x10, 0, 32, 9, 9, 0, 0, 8})
	f.Add([]byte{4 | 64, 0, 0, 1, 0, 16, 15, 15, 0xff, 15, 255, 15, 0, 7, 0, 1})
	f.Add([]byte{2 | 8 | 128, 7, 7, 0x55, 5, 0, 7, 7, 0x55, 5, 0, 8, 7, 0x05, 0, 0})
	f.Add([]byte{16, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1+5*512 {
			return
		}
		cfg, locs, keys, weights := decodeFuzzWorld(data)
		checkBuildSlab(t, "fuzz world", cfg, locs, keys, weights)
	})
}

// BenchmarkBuildSlab builds the slab of Berlin at the benchmark's scale.
func BenchmarkBuildSlab(b *testing.B) {
	ds, err := datagen.Generate(datagen.Scale(datagen.Berlin(), 0.25))
	if err != nil {
		b.Fatal(err)
	}
	locs, keys, weights := corpusArrays(ds.POIs)
	cfg := grid.Config{CellSize: 0.0005}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := grid.BuildSlab(cfg, locs, keys, weights); err != nil {
			b.Fatal(err)
		}
	}
}
