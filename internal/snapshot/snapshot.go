// Package snapshot defines the versioned on-disk index snapshot (.soi
// file). A snapshot packages everything a serving process needs — the
// road network, the photo corpus, the shared keyword dictionary, and the
// prebuilt compact slab index, which holds the POI corpus — into one
// position-independent binary blob that can be memory-mapped and served
// without any rebuild work.
//
// # File layout (version 2)
//
//	offset  size  field
//	0       8     magic "SOISNAP1"
//	8       4     layout version (uint32 LE)
//	12      4     section count (uint32 LE)
//	16      24×n  section table: {id u32, crc32c u32, offset u64, length u64}
//	...           section payloads, each 8-byte aligned
//
// Every integer is little-endian. Each table entry carries a CRC-32C
// (Castagnoli) checksum of its payload; Decode verifies every checksum
// before parsing any payload, so a flipped bit anywhere in a section is
// reported as ErrChecksum rather than surfacing as garbage data. The
// slab section reuses the grid.Slab binary codec verbatim and is
// 8-byte aligned so a memory-mapped load can alias its arrays in place.
//
// The POI corpus has no section of its own: the slab's ObjX, ObjY and
// ObjW hold every POI's location and weight and its cells' posting lists
// every POI's keywords (Section 3.2.1's per-cell inverted index), so
// Decode derives the corpus from the slab. Version 1 stored it a second
// time, as section 4.
//
// Reconstruction is exact: vertices, polylines, POIs, weights and the
// slab arrays round-trip bit-for-bit, so an index rebuilt from a
// snapshot returns bit-identical query answers to the index that
// produced it.
package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
	"unsafe"

	"repro/internal/geo"
	"repro/internal/grid"
	"repro/internal/network"
	"repro/internal/photo"
	"repro/internal/poi"
	"repro/internal/vocab"
)

// Magic identifies a snapshot file; it doubles as the layout's byte-order
// witness since it is read as raw bytes.
const Magic = "SOISNAP1"

// Version is the current layout version. Decoders reject snapshots with
// any other version: the format is a cache, so readers and writers are
// expected to be upgraded together and no cross-version compatibility is
// attempted.
const Version = 2

// Section identifiers of the version-2 layout; 4 was version 1's POI
// section.
const (
	secMeta    = 1
	secVocab   = 2
	secNetwork = 3
	secPhotos  = 5
	secSlab    = 6
)

const (
	headerSize = 16
	entrySize  = 24
)

// Typed decode failures. Every error returned by Decode wraps exactly one
// of these, so callers can distinguish "not a snapshot" from "damaged
// snapshot" from "snapshot from a different build".
var (
	// ErrBadMagic means the input does not start with the snapshot magic:
	// it is not a snapshot file at all.
	ErrBadMagic = errors.New("snapshot: bad magic")
	// ErrVersion means the snapshot was written with a different layout
	// version; regenerate it with the current binary.
	ErrVersion = errors.New("snapshot: unsupported layout version")
	// ErrTruncated means the input ends before the header, table or a
	// section payload does.
	ErrTruncated = errors.New("snapshot: truncated")
	// ErrChecksum means a section payload does not match its CRC-32C.
	ErrChecksum = errors.New("snapshot: checksum mismatch")
	// ErrMalformed means the container framing was intact but a section
	// payload failed structural validation.
	ErrMalformed = errors.New("snapshot: malformed")
	// ErrNotIndexed is Encode's refusal of a slab the POI corpus could not
	// be derived from bit for bit: one that does not index exactly the
	// corpus's locations, weights and keyword sets, or that Decode would
	// refuse.
	ErrNotIndexed = errors.New("snapshot: slab does not index the POI corpus")
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Snapshot is the in-memory form of a snapshot file: the four corpora a
// serving engine is built from. All corpora share one dictionary
// (POIs.Dict() == Photos.Dict()), and Slab indexes POIs.
type Snapshot struct {
	Net    *network.Network
	POIs   *poi.Corpus
	Photos *photo.Corpus
	Slab   *grid.Slab
}

// Encode serializes the snapshot into one buffer sized up front: every
// section's length is counted first (the slab's by Slab.EncodedSize), and
// each section is then written in place behind the table, so no section
// is built, grown or copied on its own. The POI corpus is written as the
// slab that indexes it: Encode first checks, without allocating, that
// Decode would accept the slab and derive exactly s.POIs from it —
// every POI's location and weight bits and keyword set — and refuses
// with an error wrapping ErrNotIndexed otherwise.
func Encode(s *Snapshot) ([]byte, error) {
	if s.Net == nil || s.POIs == nil || s.Photos == nil || s.Slab == nil {
		return nil, errors.New("snapshot: all of Net, POIs, Photos and Slab are required")
	}
	dict := s.POIs.Dict()
	if err := s.Slab.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrNotIndexed, err)
	}
	if err := checkSlab(s.Slab, dict.Len()); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrNotIndexed, err)
	}
	photos := s.Photos.All()
	sections := [...]struct {
		id     uint32
		size   int
		append func([]byte) []byte
	}{
		{secMeta, metaSize, func(b []byte) []byte { return appendMeta(b, s) }},
		{secVocab, vocabSize(dict), func(b []byte) []byte { return appendVocab(b, dict) }},
		{secNetwork, networkSize(s.Net), func(b []byte) []byte { return appendNetwork(b, s.Net) }},
		{secPhotos, photosSize(photos), func(b []byte) []byte { return appendPhotos(b, photos) }},
		{secSlab, s.Slab.EncodedSize(), s.Slab.AppendBinary},
	}

	tableEnd := headerSize + entrySize*len(sections)
	total := tableEnd
	for _, sec := range sections {
		total = pad8(total) + sec.size
	}
	// The table and the alignment padding are the buffer's zeroes.
	buf := make([]byte, tableEnd, total)
	// The checks borrow the buffer's unwritten tail as scratch, which
	// they leave zero: at most 4 bytes an object and 4 a posting, plus 4,
	// where the slab section alone holds 28, 4 and its 120-byte header.
	// make aligns the buffer to 8 bytes and tableEnd is a multiple of 8,
	// so the tail can be read as ids.
	scratch := buf[tableEnd:total]
	err := checkCells(s.Slab, scratch)
	if err == nil {
		ids := unsafe.Slice((*uint32)(unsafe.Pointer(unsafe.SliceData(scratch))), len(scratch)/4)
		err = checkIndexes(s.Slab, s.POIs, ids)
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrNotIndexed, err)
	}
	copy(buf, Magic)
	binary.LittleEndian.PutUint32(buf[8:], Version)
	binary.LittleEndian.PutUint32(buf[12:], uint32(len(sections)))
	for i, sec := range sections {
		off := pad8(len(buf))
		buf = sec.append(buf[:off])
		payload := buf[off:]
		if len(payload) != sec.size {
			return nil, fmt.Errorf("snapshot: section %d encoded %d bytes, %d counted", sec.id, len(payload), sec.size)
		}
		entry := buf[headerSize+i*entrySize:]
		binary.LittleEndian.PutUint32(entry[0:], sec.id)
		binary.LittleEndian.PutUint32(entry[4:], crc32.Checksum(payload, castagnoli))
		binary.LittleEndian.PutUint64(entry[8:], uint64(off))
		binary.LittleEndian.PutUint64(entry[16:], uint64(len(payload)))
	}
	return buf, nil
}

// pad8 rounds n up to a multiple of 8, the alignment of every payload.
func pad8(n int) int { return (n + 7) &^ 7 }

// Decode parses and validates a snapshot. The returned Snapshot's slab
// aliases data where alignment permits (it does for Encode output and
// mmap'd files), and its POI corpus is derived from the slab on its first
// All, Get or CountRelevant (derivePOIs), so data must stay valid and
// unmodified for the life of the snapshot; everything else is copied
// out. Every invariant the derivation relies on is validated here, in
// place, so a slab it could not derive from is ErrMalformed now and
// never a panic on first touch.
func Decode(data []byte) (*Snapshot, error) {
	if len(data) < headerSize {
		return nil, fmt.Errorf("%w: %d bytes, want at least %d header bytes", ErrTruncated, len(data), headerSize)
	}
	if string(data[:8]) != Magic {
		return nil, fmt.Errorf("%w: got %q", ErrBadMagic, data[:8])
	}
	if v := binary.LittleEndian.Uint32(data[8:]); v != Version {
		return nil, fmt.Errorf("%w: file has version %d, this build reads %d", ErrVersion, v, Version)
	}
	n := int(binary.LittleEndian.Uint32(data[12:]))
	if n > (len(data)-headerSize)/entrySize {
		return nil, fmt.Errorf("%w: table of %d entries exceeds file size", ErrTruncated, n)
	}

	// Locate and checksum every section before parsing any of them.
	payloads := make(map[uint32][]byte, n)
	for i := 0; i < n; i++ {
		entry := data[headerSize+i*entrySize:]
		id := binary.LittleEndian.Uint32(entry[0:])
		crc := binary.LittleEndian.Uint32(entry[4:])
		off := binary.LittleEndian.Uint64(entry[8:])
		length := binary.LittleEndian.Uint64(entry[16:])
		if off > uint64(len(data)) || length > uint64(len(data))-off {
			return nil, fmt.Errorf("%w: section %d spans [%d, %d+%d) beyond %d bytes", ErrTruncated, id, off, off, length, len(data))
		}
		payload := data[off : off+length]
		if got := crc32.Checksum(payload, castagnoli); got != crc {
			return nil, fmt.Errorf("%w: section %d crc %08x, want %08x", ErrChecksum, id, got, crc)
		}
		if _, dup := payloads[id]; dup {
			return nil, fmt.Errorf("%w: duplicate section %d", ErrMalformed, id)
		}
		payloads[id] = payload
	}
	for _, id := range []uint32{secMeta, secVocab, secNetwork, secPhotos, secSlab} {
		if _, ok := payloads[id]; !ok {
			return nil, fmt.Errorf("%w: missing section %d", ErrMalformed, id)
		}
	}

	dict, err := decodeVocab(payloads[secVocab])
	if err != nil {
		return nil, err
	}
	net, err := decodeNetwork(payloads[secNetwork])
	if err != nil {
		return nil, err
	}
	photos, err := decodePhotos(payloads[secPhotos], dict)
	if err != nil {
		return nil, err
	}
	// DecodeSlab has run Slab.Validate.
	slab, err := grid.DecodeSlab(payloads[secSlab])
	if err != nil {
		return nil, fmt.Errorf("%w: slab section: %w", ErrMalformed, err)
	}
	if err := checkSlab(slab, dict.Len()); err != nil {
		return nil, fmt.Errorf("%w: slab section: %w", ErrMalformed, err)
	}
	if err := checkCells(slab, nil); err != nil {
		return nil, fmt.Errorf("%w: slab section: %w", ErrMalformed, err)
	}
	pois := poi.NewLazyCorpus(slab.NumObjects, dict, func() []poi.POI { return derivePOIs(slab) })
	s := &Snapshot{Net: net, POIs: pois, Photos: photos, Slab: slab}
	if err := checkMeta(payloads[secMeta], s, dict); err != nil {
		return nil, err
	}
	return s, nil
}

// --- meta section -----------------------------------------------------
//
// Counts of every other section, used as a cheap cross-section
// consistency check: a snapshot assembled from mismatched pieces fails
// here with a clear message instead of deep inside index construction.

// metaSize is the meta section's length: seven u64 fields.
const metaSize = 56

func appendMeta(b []byte, s *Snapshot) []byte {
	b = binary.LittleEndian.AppendUint64(b, uint64(s.Net.NumVertices()))
	b = binary.LittleEndian.AppendUint64(b, uint64(s.Net.NumSegments()))
	b = binary.LittleEndian.AppendUint64(b, uint64(s.Net.NumStreets()))
	b = binary.LittleEndian.AppendUint64(b, uint64(s.POIs.Len()))
	b = binary.LittleEndian.AppendUint64(b, uint64(s.Photos.Len()))
	b = binary.LittleEndian.AppendUint64(b, uint64(s.POIs.Dict().Len()))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(s.Slab.CellSize))
	return b
}

func checkMeta(p []byte, s *Snapshot, dict *vocab.Dictionary) error {
	if len(p) != metaSize {
		return fmt.Errorf("%w: meta section is %d bytes, want %d", ErrMalformed, len(p), metaSize)
	}
	want := [6]uint64{
		uint64(s.Net.NumVertices()), uint64(s.Net.NumSegments()), uint64(s.Net.NumStreets()),
		uint64(s.POIs.Len()), uint64(s.Photos.Len()), uint64(dict.Len()),
	}
	names := [6]string{"vertices", "segments", "streets", "pois", "photos", "keywords"}
	for i, w := range want {
		if got := binary.LittleEndian.Uint64(p[i*8:]); got != w {
			return fmt.Errorf("%w: meta declares %d %s, sections contain %d", ErrMalformed, got, names[i], w)
		}
	}
	if cs := math.Float64frombits(binary.LittleEndian.Uint64(p[48:])); cs != s.Slab.CellSize {
		return fmt.Errorf("%w: meta cell size %v, slab has %v", ErrMalformed, cs, s.Slab.CellSize)
	}
	return nil
}

// --- vocab section ----------------------------------------------------
//
// Keyword names in dictionary-id order as a CSR of UTF-8 bytes; decoding
// re-interns them in order, reproducing identical ids.

func vocabSize(d *vocab.Dictionary) int {
	n := 4 + 4*d.Len()
	for i := 0; i < d.Len(); i++ {
		n += len(d.Name(vocab.ID(i)))
	}
	return n
}

func appendVocab(b []byte, d *vocab.Dictionary) []byte {
	n := d.Len()
	b = binary.LittleEndian.AppendUint32(b, uint32(n))
	off := uint32(0)
	for i := 0; i < n; i++ {
		off += uint32(len(d.Name(vocab.ID(i))))
		b = binary.LittleEndian.AppendUint32(b, off)
	}
	for i := 0; i < n; i++ {
		b = append(b, d.Name(vocab.ID(i))...)
	}
	return b
}

func decodeVocab(p []byte) (*vocab.Dictionary, error) {
	r := &reader{data: p, section: "vocab"}
	n, err := r.count(4)
	if err != nil {
		return nil, err
	}
	ends, err := r.u32s(n)
	if err != nil {
		return nil, err
	}
	dict := vocab.NewDictionary()
	prev := uint32(0)
	for i, end := range ends {
		if end < prev {
			return nil, fmt.Errorf("%w: vocab offsets not monotone at %d", ErrMalformed, i)
		}
		name, err := r.bytes(int(end - prev))
		if err != nil {
			return nil, err
		}
		s := string(name)
		if s != vocab.Normalize(s) {
			// The dictionary stores normalized names; anything else would be
			// silently rewritten by Intern and break id stability.
			return nil, fmt.Errorf("%w: vocab entry %d (%q) is not normalized", ErrMalformed, i, s)
		}
		if got := dict.Intern(s); got != vocab.ID(i) {
			return nil, fmt.Errorf("%w: vocab entry %d duplicates entry %d (%q)", ErrMalformed, i, got, s)
		}
		prev = end
	}
	return dict, r.done()
}

// --- network section --------------------------------------------------
//
// Vertices in id order plus, per street, its name and its polyline as
// vertex ids. Decoding re-adds vertices then streets in order, so vertex
// interning reproduces identical ids and segment geometry reuses the
// exact stored coordinates.

func networkSize(n *network.Network) int {
	streets := n.Streets()
	size := 4 + 16*n.NumVertices() + 4 + 8*len(streets)
	for i := range streets {
		size += len(streets[i].Name) + 4*(len(streets[i].Segments)+1)
	}
	return size
}

func appendNetwork(b []byte, n *network.Network) []byte {
	nv := n.NumVertices()
	b = binary.LittleEndian.AppendUint32(b, uint32(nv))
	for i := 0; i < nv; i++ {
		v := n.Vertex(network.VertexID(i))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v.X))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v.Y))
	}
	streets := n.Streets()
	b = binary.LittleEndian.AppendUint32(b, uint32(len(streets)))
	nameEnd, polyEnd := uint32(0), uint32(0)
	for i := range streets {
		nameEnd += uint32(len(streets[i].Name))
		polyEnd += uint32(len(streets[i].Segments)) + 1
		b = binary.LittleEndian.AppendUint32(b, nameEnd)
		b = binary.LittleEndian.AppendUint32(b, polyEnd)
	}
	for i := range streets {
		b = append(b, streets[i].Name...)
	}
	for i := range streets {
		segs := streets[i].Segments
		b = binary.LittleEndian.AppendUint32(b, n.Segment(segs[0]).From)
		for _, sid := range segs {
			b = binary.LittleEndian.AppendUint32(b, n.Segment(sid).To)
		}
	}
	return b
}

func decodeNetwork(p []byte) (*network.Network, error) {
	r := &reader{data: p, section: "network"}
	nv, err := r.count(16)
	if err != nil {
		return nil, err
	}
	verts := make([]geo.Point, nv)
	for i := range verts {
		x, err := r.f64()
		if err != nil {
			return nil, err
		}
		y, err := r.f64()
		if err != nil {
			return nil, err
		}
		verts[i] = geo.Point{X: x, Y: y}
	}
	ns, err := r.count(8)
	if err != nil {
		return nil, err
	}
	nameEnds := make([]uint32, ns)
	polyEnds := make([]uint32, ns)
	for i := 0; i < ns; i++ {
		if nameEnds[i], err = r.u32(); err != nil {
			return nil, err
		}
		if polyEnds[i], err = r.u32(); err != nil {
			return nil, err
		}
	}
	names := make([]string, ns)
	prev := uint32(0)
	for i, end := range nameEnds {
		if end < prev {
			return nil, fmt.Errorf("%w: network name offsets not monotone at %d", ErrMalformed, i)
		}
		raw, err := r.bytes(int(end - prev))
		if err != nil {
			return nil, err
		}
		names[i] = string(raw)
		prev = end
	}
	nb := network.NewBuilder()
	nb.Grow(nv, ns)
	for _, v := range verts {
		nb.AddVertex(v)
	}
	prev = 0
	var poly []geo.Point
	for i, end := range polyEnds {
		if end < prev+2 {
			return nil, fmt.Errorf("%w: street %d polyline has %d points, want >= 2", ErrMalformed, i, int(end)-int(prev))
		}
		ids, err := r.u32s(int(end - prev))
		if err != nil {
			return nil, err
		}
		poly = poly[:0]
		for _, id := range ids {
			if int(id) >= nv {
				return nil, fmt.Errorf("%w: street %d references vertex %d of %d", ErrMalformed, i, id, nv)
			}
			poly = append(poly, verts[id])
		}
		nb.AddStreet(names[i], poly)
		prev = end
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	net, err := nb.Build()
	if err != nil {
		return nil, fmt.Errorf("%w: network: %v", ErrMalformed, err)
	}
	if net.NumVertices() != nv {
		// A vertex listed twice would be interned once, silently renumbering
		// every later reference.
		return nil, fmt.Errorf("%w: network has duplicate vertices", ErrMalformed)
	}
	return net, nil
}

// --- the POI corpus, derived from the slab -------------------------------

// checkSlab checks what deriving a corpus from a slab Slab.Validate
// accepts needs beyond the cells' order (checkCells): every keyword id
// has a dictionary entry, and no object weighs 0, which a corpus would
// read as weight 1. It allocates nothing.
func checkSlab(s *grid.Slab, dictLen int) error {
	if s.VocabN > dictLen {
		return fmt.Errorf("slab posts keyword ids below %d, the dictionary holds %d", s.VocabN, dictLen)
	}
	for i, w := range s.ObjW {
		if w == 0 {
			return fmt.Errorf("slab object %d has weight 0", i)
		}
	}
	return nil
}

// checkCells checks, in one pass over a validated slab's cells, that they
// partition its objects as derivePOIs needs: each cell's members and
// keywords strictly ascending, no object a member of two cells (with
// Slab.Validate's count of NumObjects members in all, each is a member
// of exactly one), and each (cell, keyword) posting list strictly
// ascending and holding members of its cell only. It takes two bits an
// object — one marks the objects seen in any cell, one the members of
// the cell being checked — from scratch, which must be zero, allocating
// them when scratch is too short, and leaves them zero when it succeeds.
func checkCells(s *grid.Slab, scratch []byte) error {
	n := (s.NumObjects + 7) / 8
	if len(scratch) < 2*n {
		scratch = make([]byte, 2*n)
	}
	seen, inCell := scratch[:n], scratch[n:2*n]
	for ord, id := range s.CellIDs {
		members := s.Members[s.MemberOff[ord]:s.MemberOff[ord+1]]
		for i, m := range members {
			w, b := m/8, byte(1)<<(m%8)
			if i > 0 && m <= members[i-1] {
				return fmt.Errorf("slab cell %d members not strictly ascending", id)
			}
			if seen[w]&b != 0 {
				return fmt.Errorf("slab object %d is a member of two cells", m)
			}
			seen[w] |= b
			inCell[w] |= b
		}
		kwLo, kwHi := s.KwOff[ord], s.KwOff[ord+1]
		for j := kwLo; j < kwHi; j++ {
			if j > kwLo && s.CellKw[j] <= s.CellKw[j-1] {
				return fmt.Errorf("slab cell %d keywords not strictly ascending", id)
			}
			posts := s.Postings[s.PostOff[j]:s.PostOff[j+1]]
			for i, m := range posts {
				if i > 0 && m <= posts[i-1] || inCell[m/8]&(1<<(m%8)) == 0 {
					return fmt.Errorf("slab cell %d keyword %d postings are not its members in ascending order", id, s.CellKw[j])
				}
			}
		}
		for _, m := range members {
			inCell[m/8] &^= 1 << (m % 8)
		}
	}
	clear(seen)
	return nil
}

// checkIndexes reports whether derivePOIs returns pois from a slab
// checkSlab and checkCells accept — the corpus's size, each POI's
// location and weight bits, and each POI's keyword set — by deriving the
// sets into scratch, which must be zero and hold NumObjects+1+len(Postings)
// ids, and comparing them with the corpus in id order. It leaves scratch
// zero.
func checkIndexes(s *grid.Slab, pois *poi.Corpus, scratch []uint32) error {
	n := s.NumObjects
	if n != pois.Len() {
		return fmt.Errorf("slab indexes %d objects, corpus has %d", n, pois.Len())
	}
	ends, ids := scratch[:n+1], scratch[n+1:n+1+len(s.Postings)]
	defer clear(scratch[:n+1+len(s.Postings)])
	deriveSets(s, ends, ids)
	start := uint32(0)
	for i, p := range pois.All() {
		if math.Float64bits(s.ObjX[i]) != math.Float64bits(p.Loc.X) || math.Float64bits(s.ObjY[i]) != math.Float64bits(p.Loc.Y) ||
			math.Float64bits(s.ObjW[i]) != math.Float64bits(p.Weight) {
			return fmt.Errorf("POI %d at (%v, %v) weighs %v, the slab holds (%v, %v) weighing %v",
				i, p.Loc.X, p.Loc.Y, p.Weight, s.ObjX[i], s.ObjY[i], s.ObjW[i])
		}
		if set := ids[start:ends[i]]; !slices.Equal(p.Keywords, set) {
			return fmt.Errorf("POI %d has keywords %v, the slab posts it under %v", i, p.Keywords, set)
		}
		start = ends[i]
	}
	return nil
}

// deriveSets writes the keyword sets a slab checkSlab and checkCells
// accepted posts its objects under, as one CSR: object i's set is
// ids[ends[i-1]:ends[i]], from 0 for i = 0. ends holds NumObjects+1
// counters and ids len(Postings) ids, both zero. The cells are walked in
// order and each cell's keywords ascending, and every object is a member
// of one cell, so each set comes out strictly ascending.
func deriveSets(s *grid.Slab, ends, ids []uint32) {
	// ends[m+1] counts object m's keywords, then ends[m] becomes where
	// its set starts; as the sets fill it is where the next id goes, and
	// it ends as the set's end.
	for _, m := range s.Postings {
		ends[m+1]++
	}
	for i := range s.NumObjects {
		ends[i+1] += ends[i]
	}
	for ord := range s.CellIDs {
		for j := s.KwOff[ord]; j < s.KwOff[ord+1]; j++ {
			for _, m := range s.Postings[s.PostOff[j]:s.PostOff[j+1]] {
				ids[ends[m]] = s.CellKw[j]
				ends[m]++
			}
		}
	}
}

// derivePOIs reads the corpus out of a slab checkSlab and checkCells
// accepted: POI i at (ObjX[i], ObjY[i]) weighing ObjW[i], with the
// keyword set deriveSets gives it. The ids share one array of exactly
// the postings' size, and each POI's set sub-slices it with capped
// capacity (nil when empty), so an append by a caller reallocates.
func derivePOIs(s *grid.Slab) []poi.POI {
	n := s.NumObjects
	ends, ids := make([]uint32, n+1), make([]vocab.ID, len(s.Postings))
	deriveSets(s, ends, ids)
	pois := make([]poi.POI, n)
	start := uint32(0)
	for i := range pois {
		var set vocab.Set
		if end := ends[i]; end > start {
			set = ids[start:end:end]
		}
		pois[i] = poi.POI{ID: poi.ID(i), Loc: geo.Point{X: s.ObjX[i], Y: s.ObjY[i]}, Keywords: set, Weight: s.ObjW[i]}
		start = ends[i]
	}
	return pois
}

// --- photo section ------------------------------------------------------
//
// Locations as parallel float64 arrays, tag sets as one CSR over
// dictionary ids.

func photosSize(all []photo.Photo) int {
	n := 4 + (4+16)*len(all)
	for i := range all {
		n += 4 * len(all[i].Tags)
	}
	return n
}

func appendPhotos(b []byte, all []photo.Photo) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(all)))
	tagEnd := uint32(0)
	for i := range all {
		tagEnd += uint32(len(all[i].Tags))
		b = binary.LittleEndian.AppendUint32(b, tagEnd)
	}
	for i := range all {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(all[i].Loc.X))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(all[i].Loc.Y))
	}
	for i := range all {
		for _, tag := range all[i].Tags {
			b = binary.LittleEndian.AppendUint32(b, tag)
		}
	}
	return b
}

// decodePhotos checks the section's framing — its count, and set ends
// that are monotone and end exactly at the id array's end — that every
// tag has a dictionary entry and every set is strictly ascending
// (vocab.Set's invariant). It decodes the ids into one array of exactly
// the section's size, and each photo's set sub-slices that array with
// capped capacity (nil when empty), so an append by a caller reallocates.
func decodePhotos(p []byte, dict *vocab.Dictionary) (*photo.Corpus, error) {
	r := &reader{data: p, section: "photos"}
	n, err := r.count(4 + 16)
	if err != nil {
		return nil, err
	}
	ends, err := r.bytes(4 * n)
	if err != nil {
		return nil, err
	}
	locs, err := r.bytes(16 * n)
	if err != nil {
		return nil, err
	}
	ids := p[r.off:]
	all := make([]vocab.ID, 0, len(ids)/4)
	photos := make([]photo.Photo, n)
	prev := 0
	for i := range photos {
		end := int(binary.LittleEndian.Uint32(ends[4*i:]))
		if end < prev {
			return nil, fmt.Errorf("%w: photo tag offsets not monotone at %d", ErrMalformed, i)
		}
		if end > len(ids)/4 {
			return nil, fmt.Errorf("%w: photo %d tags end at %d, the section holds %d", ErrMalformed, i, end, len(ids)/4)
		}
		for j := prev; j < end; j++ {
			id := binary.LittleEndian.Uint32(ids[4*j:])
			if int(id) >= dict.Len() {
				return nil, fmt.Errorf("%w: photo %d references keyword %d of %d", ErrMalformed, i, id, dict.Len())
			}
			if j > prev && id <= all[len(all)-1] {
				return nil, fmt.Errorf("%w: photo %d tags not strictly ascending", ErrMalformed, i)
			}
			all = append(all, id)
		}
		var set vocab.Set
		if end > prev {
			set = all[prev:end:end]
		}
		x := math.Float64frombits(binary.LittleEndian.Uint64(locs[16*i:]))
		y := math.Float64frombits(binary.LittleEndian.Uint64(locs[16*i+8:]))
		photos[i] = photo.Photo{ID: photo.ID(i), Loc: geo.Point{X: x, Y: y}, Tags: set}
		prev = end
	}
	if 4*prev != len(ids) {
		return nil, fmt.Errorf("%w: photos section has %d trailing bytes", ErrMalformed, len(ids)-4*prev)
	}
	return photo.NewCorpus(photos, dict)
}

// --- section payload reader -------------------------------------------

// reader is a bounds-checked cursor over one section payload; every
// failure wraps ErrMalformed with the section name and offset.
type reader struct {
	data    []byte
	off     int
	section string
}

func (r *reader) bytes(n int) ([]byte, error) {
	if n < 0 || n > len(r.data)-r.off {
		return nil, fmt.Errorf("%w: %s section needs %d bytes at offset %d, %d remain",
			ErrMalformed, r.section, n, r.off, len(r.data)-r.off)
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b, nil
}

func (r *reader) u32() (uint32, error) {
	b, err := r.bytes(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (r *reader) f64() (float64, error) {
	b, err := r.bytes(8)
	if err != nil {
		return 0, err
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b)), nil
}

// count reads a u32 element count and bounds it by the bytes each element
// needs at minimum, so a corrupt count cannot trigger a huge allocation.
func (r *reader) count(minPer int) (int, error) {
	n, err := r.u32()
	if err != nil {
		return 0, err
	}
	if int64(n)*int64(minPer) > int64(len(r.data)-r.off) {
		return 0, fmt.Errorf("%w: %s section declares %d elements, only %d bytes remain",
			ErrMalformed, r.section, n, len(r.data)-r.off)
	}
	return int(n), nil
}

func (r *reader) u32s(n int) ([]uint32, error) {
	b, err := r.bytes(4 * n)
	if err != nil {
		return nil, err
	}
	out := make([]uint32, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(b[4*i:])
	}
	return out, nil
}

func (r *reader) done() error {
	if r.off != len(r.data) {
		return fmt.Errorf("%w: %s section has %d trailing bytes", ErrMalformed, r.section, len(r.data)-r.off)
	}
	return nil
}
