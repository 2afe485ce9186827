package grid_test

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geo"
	"repro/internal/grid"
	"repro/internal/vocab"
)

// slabWorld generates a reproducible random object set.
func slabWorld(seed int64, n, vocabN int) ([]geo.Point, []vocab.Set, []float64) {
	rng := rand.New(rand.NewSource(seed))
	locs := make([]geo.Point, n)
	keys := make([]vocab.Set, n)
	weights := make([]float64, n)
	for i := range locs {
		locs[i] = geo.Point{X: rng.Float64() * 100, Y: rng.Float64() * 80}
		ids := make([]vocab.ID, rng.Intn(4))
		for j := range ids {
			ids[j] = vocab.ID(rng.Intn(vocabN))
		}
		keys[i] = vocab.NewSet(ids)
		weights[i] = 0.5 + rng.Float64()
	}
	return locs, keys, weights
}

func buildSlab(t *testing.T, seed int64, n, vocabN int, weighted bool) *grid.Slab {
	t.Helper()
	locs, keys, weights := slabWorld(seed, n, vocabN)
	if !weighted {
		weights = nil
	}
	s, err := grid.BuildSlab(grid.Config{CellSize: 5}, locs, keys, weights)
	if err != nil {
		t.Fatalf("BuildSlab: %v", err)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate on fresh slab: %v", err)
	}
	return s
}

// TestSlabCellsNearSegment cross-checks the slab's span and row-range walk
// against the definition applied to every non-empty cell, on random
// segments.
func TestSlabCellsNearSegment(t *testing.T) {
	s := buildSlab(t, 2, 400, 8, false)
	rng := rand.New(rand.NewSource(7))
	var buf []int32
	for trial := 0; trial < 200; trial++ {
		seg := geo.Segment{
			A: geo.Point{X: rng.Float64() * 110, Y: rng.Float64() * 90},
			B: geo.Point{X: rng.Float64() * 110, Y: rng.Float64() * 90},
		}
		eps := rng.Float64() * 10
		var want []grid.CellID
		for _, id := range s.CellIDs {
			if s.CellRect(grid.CellID(id)).DistToSegment(seg) <= eps {
				want = append(want, grid.CellID(id))
			}
		}
		buf = s.CellsNearSegmentInto(seg, eps, buf[:0])
		if len(buf) != len(want) {
			t.Fatalf("trial %d: %d cells, want %d", trial, len(buf), len(want))
		}
		for i, ord := range buf {
			if grid.CellID(s.CellIDs[ord]) != want[i] {
				t.Fatalf("trial %d: cell %d = %d, want %d", trial, i, s.CellIDs[ord], want[i])
			}
		}
	}
}

// TestSlabCodecRoundTrip encodes, decodes and re-encodes a slab; both
// encodings must be byte-identical and sized as promised.
func TestSlabCodecRoundTrip(t *testing.T) {
	for _, weighted := range []bool{false, true} {
		s := buildSlab(t, 4, 350, 9, weighted)
		enc := s.AppendBinary(nil)
		if len(enc) != s.EncodedSize() {
			t.Fatalf("encoded %d bytes, EncodedSize says %d", len(enc), s.EncodedSize())
		}
		s2, err := grid.DecodeSlab(enc)
		if err != nil {
			t.Fatalf("DecodeSlab: %v", err)
		}
		enc2 := s2.AppendBinary(nil)
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("re-encoding differs after decode")
		}
		if s2.NumObjects != s.NumObjects || s2.VocabN != s.VocabN || s2.Bounds != s.Bounds {
			t.Fatalf("decoded header differs")
		}
	}
}

// TestSlabCodecEmpty covers the degenerate zero-object slab.
func TestSlabCodecEmpty(t *testing.T) {
	s, err := grid.BuildSlab(grid.Config{CellSize: 1, Bounds: geo.Rect{MaxX: 1, MaxY: 1}}, nil, nil, nil)
	if err != nil {
		t.Fatalf("BuildSlab: %v", err)
	}
	enc := s.AppendBinary(nil)
	if _, err := grid.DecodeSlab(enc); err != nil {
		t.Fatalf("DecodeSlab(empty): %v", err)
	}
}

// TestSlabDecodeCorrupt flips, truncates and oversizes encodings; every
// mutation must yield ErrSlabMalformed, never a panic, and accepted
// decodes must re-encode to the mutated input (meaning the flip landed in
// a don't-care padding byte or produced an equally valid slab).
func TestSlabDecodeCorrupt(t *testing.T) {
	s := buildSlab(t, 5, 250, 7, true)
	enc := s.AppendBinary(nil)

	for cut := 0; cut < len(enc); cut += 13 {
		if _, err := grid.DecodeSlab(enc[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes decoded successfully", cut)
		} else if !errors.Is(err, grid.ErrSlabMalformed) {
			t.Fatalf("truncation to %d: error %v not ErrSlabMalformed", cut, err)
		}
	}
	if _, err := grid.DecodeSlab(append(append([]byte{}, enc...), 0)); err == nil {
		t.Fatalf("trailing garbage decoded successfully")
	}

	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 500; trial++ {
		mut := append([]byte{}, enc...)
		i := rng.Intn(len(mut))
		mut[i] ^= 1 << rng.Intn(8)
		s2, err := grid.DecodeSlab(mut)
		if err != nil {
			if !errors.Is(err, grid.ErrSlabMalformed) {
				t.Fatalf("trial %d: error %v not ErrSlabMalformed", trial, err)
			}
			continue
		}
		if !bytes.Equal(s2.AppendBinary(nil), mut) {
			t.Fatalf("trial %d: accepted decode does not round-trip", trial)
		}
	}
}

// TestSlabBuildDeterministicAcrossWorkers is the golden-hash guard for
// BuildSlab's parallel passes: above the parallel threshold, slabs built
// with any worker count, dividing the cells evenly or not, must be
// byte-identical.
func TestSlabBuildDeterministicAcrossWorkers(t *testing.T) {
	n := grid.ParallelBuildThreshold + 1500
	for _, seed := range []int64{0, 1, 42} {
		locs, keys, weights := slabWorld(seed, n, 20)
		var golden [sha256.Size]byte
		for _, workers := range []int{1, 2, 3, 4, 7, 16} {
			s, err := grid.BuildSlabWithWorkers(grid.Config{CellSize: 3}, locs, keys, weights, workers)
			if err != nil {
				t.Fatalf("seed %d workers %d: %v", seed, workers, err)
			}
			h := sha256.Sum256(s.AppendBinary(nil))
			if workers == 1 {
				golden = h
			} else if h != golden {
				t.Fatalf("seed %d: slab built with %d workers differs from sequential build", seed, workers)
			}
		}
	}
}

// TestSlabValidateRejects exercises Validate's individual checks through
// hand-broken slabs.
func TestSlabValidateRejects(t *testing.T) {
	fresh := func() *grid.Slab {
		s := buildSlab(t, 6, 200, 6, false)
		return s
	}
	breaks := []struct {
		name string
		mut  func(*grid.Slab)
	}{
		{"dims", func(s *grid.Slab) { s.NX = 0 }},
		{"cellsize", func(s *grid.Slab) { s.CellSize = math.Inf(1) }},
		{"cellid-range", func(s *grid.Slab) { s.CellIDs[0] = int32(s.NX*s.NY) + 5 }},
		{"cellid-order", func(s *grid.Slab) { s.CellIDs[1] = s.CellIDs[0] }},
		{"member-off", func(s *grid.Slab) { s.MemberOff[1] = s.MemberOff[0] + 1<<30 }},
		{"member-id", func(s *grid.Slab) { s.Members[0] = uint32(s.NumObjects) }},
		{"posting-id", func(s *grid.Slab) { s.Postings[0] = uint32(s.NumObjects) }},
		{"kw-range", func(s *grid.Slab) { s.CellKw[0] = uint32(s.VocabN) }},
		{"inv-ordinal", func(s *grid.Slab) { s.InvCell[0] = int32(s.NumCells()) }},
		{"inv-weight-len", func(s *grid.Slab) { s.InvWeight = s.InvWeight[:len(s.InvWeight)-1] }},
		{"obj-len", func(s *grid.Slab) { s.ObjX = s.ObjX[:len(s.ObjX)-1] }},
		{"obj-x", func(s *grid.Slab) { s.ObjX[0] = math.Inf(-1) }},
		{"obj-y", func(s *grid.Slab) { s.ObjY[0] = math.NaN() }},
		{"obj-weight", func(s *grid.Slab) { s.ObjW[0] = -1 }},
		{"cell-weight", func(s *grid.Slab) { s.CellWeight[0] = math.NaN() }},
		{"inv-weight", func(s *grid.Slab) { s.InvWeight[0] = math.Inf(1) }},
		{"member-count", func(s *grid.Slab) {
			s.NumObjects++
			s.ObjX, s.ObjY, s.ObjW = append(s.ObjX, 0), append(s.ObjY, 0), append(s.ObjW, 1)
		}},
	}
	for _, b := range breaks {
		s := fresh()
		b.mut(s)
		if err := s.Validate(); !errors.Is(err, grid.ErrSlabMalformed) {
			t.Errorf("%s: Validate = %v, want ErrSlabMalformed", b.name, err)
		}
	}
}
