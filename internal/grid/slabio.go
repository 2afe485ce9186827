package grid

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"unsafe"

	"repro/internal/geo"
)

// Binary slab encoding (little-endian throughout):
//
//	offset  size  field
//	     0     8  magic "SOISLAB1"
//	     8     8  nx
//	    16     8  ny
//	    24     8  numObjects
//	    32     8  vocabN
//	    40     8  numCells C
//	    48     8  len(Members)
//	    56     8  len(CellKw) K
//	    64     8  len(Postings)
//	    72     8  len(InvCell)
//	    80     8  cellSize (float64 bits)
//	    88    32  bounds MinX, MinY, MaxX, MaxY (float64 bits)
//	   120     —  arrays, each padded to the next 8-byte boundary:
//	              CellIDs   int32 ×C        PsiMin  int32 ×C
//	              PsiMax    int32 ×C        MemberOff uint32 ×(C+1)
//	              Members   uint32          KwOff   uint32 ×(C+1)
//	              CellKw    uint32 ×K       PostOff uint32 ×(K+1)
//	              Postings  uint32          InvOff  uint32 ×(vocabN+1)
//	              InvCell   int32           CellWeight float64 ×C
//	              InvWeight float64         ObjX/ObjY/ObjW float64 ×numObjects
//
// The 8-byte padding keeps every array aligned for direct aliasing, so a
// slab mapped from disk is served without copying its arrays.

// slabMagic identifies a serialized slab; the trailing digit is the
// layout generation and changes whenever the array order or header moves.
const slabMagic = "SOISLAB1"

// slabHeaderSize is the fixed prefix before the first array.
const slabHeaderSize = 120

// ErrSlabMalformed is wrapped by every slab decoding error.
var ErrSlabMalformed = errors.New("grid: malformed slab")

// AppendBinary appends the slab's binary encoding to buf and returns the
// extended slice. The encoding is deterministic: equal slabs encode to
// equal bytes.
func (s *Slab) AppendBinary(buf []byte) []byte {
	var h [slabHeaderSize]byte
	copy(h[:8], slabMagic)
	le := binary.LittleEndian
	le.PutUint64(h[8:], uint64(s.NX))
	le.PutUint64(h[16:], uint64(s.NY))
	le.PutUint64(h[24:], uint64(s.NumObjects))
	le.PutUint64(h[32:], uint64(s.VocabN))
	le.PutUint64(h[40:], uint64(len(s.CellIDs)))
	le.PutUint64(h[48:], uint64(len(s.Members)))
	le.PutUint64(h[56:], uint64(len(s.CellKw)))
	le.PutUint64(h[64:], uint64(len(s.Postings)))
	le.PutUint64(h[72:], uint64(len(s.InvCell)))
	le.PutUint64(h[80:], math.Float64bits(s.CellSize))
	le.PutUint64(h[88:], math.Float64bits(s.Bounds.MinX))
	le.PutUint64(h[96:], math.Float64bits(s.Bounds.MinY))
	le.PutUint64(h[104:], math.Float64bits(s.Bounds.MaxX))
	le.PutUint64(h[112:], math.Float64bits(s.Bounds.MaxY))
	buf = append(buf, h[:]...)

	buf = appendI32s(buf, s.CellIDs)
	buf = appendI32s(buf, s.PsiMin)
	buf = appendI32s(buf, s.PsiMax)
	buf = appendU32s(buf, s.MemberOff)
	buf = appendU32s(buf, s.Members)
	buf = appendU32s(buf, s.KwOff)
	buf = appendU32s(buf, s.CellKw)
	buf = appendU32s(buf, s.PostOff)
	buf = appendU32s(buf, s.Postings)
	buf = appendU32s(buf, s.InvOff)
	buf = appendI32s(buf, s.InvCell)
	buf = appendF64s(buf, s.CellWeight)
	buf = appendF64s(buf, s.InvWeight)
	buf = appendF64s(buf, s.ObjX)
	buf = appendF64s(buf, s.ObjY)
	buf = appendF64s(buf, s.ObjW)
	return buf
}

// EncodedSize returns the exact byte length AppendBinary will produce.
func (s *Slab) EncodedSize() int {
	n := slabHeaderSize
	for _, l := range []int{len(s.CellIDs), len(s.PsiMin), len(s.PsiMax), len(s.InvCell)} {
		n += pad8(4 * l)
	}
	for _, l := range []int{len(s.MemberOff), len(s.Members), len(s.KwOff), len(s.CellKw), len(s.PostOff), len(s.Postings), len(s.InvOff)} {
		n += pad8(4 * l)
	}
	n += 8 * (len(s.CellWeight) + len(s.InvWeight) + 3*s.NumObjects)
	return n
}

// DecodeSlab parses a binary slab. The returned slab aliases data's
// arrays whenever the backing memory is suitably aligned (always the case
// for mmap-ed files and fresh allocations) and copies them otherwise, so
// callers keeping data alive may treat the result as zero-copy. The slab
// is fully validated; any structural defect returns an error wrapping
// ErrSlabMalformed, never a panic.
func DecodeSlab(data []byte) (*Slab, error) {
	if len(data) < slabHeaderSize {
		return nil, fmt.Errorf("%w: %d bytes, want at least %d", ErrSlabMalformed, len(data), slabHeaderSize)
	}
	if string(data[:8]) != slabMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrSlabMalformed, data[:8])
	}
	le := binary.LittleEndian
	counts := make([]uint64, 9)
	for i := range counts {
		counts[i] = le.Uint64(data[8+8*i:])
	}
	// Every count is bounded by what could possibly fit in the payload;
	// this guards the int conversions and size arithmetic below against
	// overflow on hostile input.
	limit := uint64(len(data))
	for i, c := range counts {
		if c > limit {
			return nil, fmt.Errorf("%w: count %d = %d exceeds input size", ErrSlabMalformed, i, c)
		}
	}
	nx, ny := int(counts[0]), int(counts[1])
	numObjects, vocabN := int(counts[2]), int(counts[3])
	numCells := int(counts[4])
	lenMembers, lenCellKw := int(counts[5]), int(counts[6])
	lenPostings, lenInvCell := int(counts[7]), int(counts[8])

	s := &Slab{
		NX:         nx,
		NY:         ny,
		NumObjects: numObjects,
		VocabN:     vocabN,
		CellSize:   math.Float64frombits(le.Uint64(data[80:])),
		Bounds: geo.Rect{
			MinX: math.Float64frombits(le.Uint64(data[88:])),
			MinY: math.Float64frombits(le.Uint64(data[96:])),
			MaxX: math.Float64frombits(le.Uint64(data[104:])),
			MaxY: math.Float64frombits(le.Uint64(data[112:])),
		},
	}

	d := slabDecoder{data: data, off: slabHeaderSize}
	s.CellIDs = d.i32s(numCells)
	s.PsiMin = d.i32s(numCells)
	s.PsiMax = d.i32s(numCells)
	s.MemberOff = d.u32s(numCells + 1)
	s.Members = d.u32s(lenMembers)
	s.KwOff = d.u32s(numCells + 1)
	s.CellKw = d.u32s(lenCellKw)
	s.PostOff = d.u32s(lenCellKw + 1)
	s.Postings = d.u32s(lenPostings)
	s.InvOff = d.u32s(vocabN + 1)
	s.InvCell = d.i32s(lenInvCell)
	s.CellWeight = d.f64s(numCells)
	s.InvWeight = d.f64s(lenInvCell)
	s.ObjX = d.f64s(numObjects)
	s.ObjY = d.f64s(numObjects)
	s.ObjW = d.f64s(numObjects)
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(data) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrSlabMalformed, len(data)-d.off)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// slabDecoder slices consecutive padded arrays out of the input, carrying
// the first error.
type slabDecoder struct {
	data []byte
	off  int
	err  error
}

// take returns the next n bytes (with the array padded to 8) or nil after
// recording a truncation error.
func (d *slabDecoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	padded := pad8(n)
	if padded < n || d.off+padded < d.off || d.off+padded > len(d.data) {
		d.err = fmt.Errorf("%w: truncated at offset %d (need %d bytes)", ErrSlabMalformed, d.off, padded)
		return nil
	}
	b := d.data[d.off : d.off+n]
	for _, p := range d.data[d.off+n : d.off+padded] {
		if p != 0 {
			d.err = fmt.Errorf("%w: nonzero padding at offset %d", ErrSlabMalformed, d.off+n)
			return nil
		}
	}
	d.off += padded
	return b
}

func (d *slabDecoder) u32s(n int) []uint32 {
	if n < 0 {
		d.err = fmt.Errorf("%w: negative array length", ErrSlabMalformed)
		return nil
	}
	b := d.take(4 * n)
	if b == nil || n == 0 {
		return nil
	}
	if uintptr(unsafe.Pointer(&b[0]))%4 == 0 {
		return unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]uint32, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(b[4*i:])
	}
	return out
}

func (d *slabDecoder) i32s(n int) []int32 {
	u := d.u32s(n)
	if u == nil {
		return nil
	}
	return unsafe.Slice((*int32)(unsafe.Pointer(&u[0])), n)
}

func (d *slabDecoder) f64s(n int) []float64 {
	if n < 0 {
		d.err = fmt.Errorf("%w: negative array length", ErrSlabMalformed)
		return nil
	}
	b := d.take(8 * n)
	if b == nil || n == 0 {
		return nil
	}
	if uintptr(unsafe.Pointer(&b[0]))%8 == 0 {
		return unsafe.Slice((*float64)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}

func pad8(n int) int { return (n + 7) &^ 7 }

func appendU32s(buf []byte, vs []uint32) []byte {
	for _, v := range vs {
		buf = binary.LittleEndian.AppendUint32(buf, v)
	}
	return appendPad8(buf, 4*len(vs))
}

func appendI32s(buf []byte, vs []int32) []byte {
	for _, v := range vs {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
	}
	return appendPad8(buf, 4*len(vs))
}

func appendF64s(buf []byte, vs []float64) []byte {
	for _, v := range vs {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	return buf
}

func appendPad8(buf []byte, written int) []byte {
	for i := written; i%8 != 0; i++ {
		buf = append(buf, 0)
	}
	return buf
}
