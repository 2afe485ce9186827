// Package network models the road network substrate of the paper: a
// directed graph G = (V, L) whose vertices are street intersections or
// breakpoints and whose links are street segments (line segments), grouped
// into streets. Each street is a simple path of consecutive segments, each
// segment belongs to exactly one street, and segment/street lengths follow
// the paper's Euclidean definitions.
package network

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"

	"repro/internal/geo"
)

// VertexID identifies a vertex (intersection or breakpoint).
type VertexID = uint32

// SegmentID identifies a street segment (a link of G).
type SegmentID = uint32

// StreetID identifies a street (a simple path of consecutive segments).
type StreetID = uint32

// Segment is one link of the road network.
type Segment struct {
	ID     SegmentID
	Street StreetID
	From   VertexID
	To     VertexID
	Geom   geo.Segment
	length float64
}

// Length returns the Euclidean length of the segment, cached at build
// time (len(ℓ) in the paper).
func (s *Segment) Length() float64 { return s.length }

// Street is a named simple path of consecutive segments. Builder numbers
// segments as it adds streets, so a street's Segments are consecutive
// ids, ascending, and a later street's ids are all larger.
type Street struct {
	ID       StreetID
	Name     string
	Segments []SegmentID
	length   float64
}

// Length returns the total length of the street's segments (len(s)).
func (s *Street) Length() float64 { return s.length }

// Network is an immutable road network. Build one with a Builder.
type Network struct {
	vertices []geo.Point
	segments []Segment
	streets  []Street
	bounds   geo.Rect
	// byName maps each street name to the first street that carries it.
	byName map[string]StreetID
}

// NumVertices returns |V|.
func (n *Network) NumVertices() int { return len(n.vertices) }

// NumSegments returns |L|.
func (n *Network) NumSegments() int { return len(n.segments) }

// NumStreets returns |S|.
func (n *Network) NumStreets() int { return len(n.streets) }

// Vertex returns the coordinates of vertex id.
func (n *Network) Vertex(id VertexID) geo.Point { return n.vertices[id] }

// Segment returns the segment with the given id.
func (n *Network) Segment(id SegmentID) *Segment { return &n.segments[id] }

// Street returns the street with the given id.
func (n *Network) Street(id StreetID) *Street { return &n.streets[id] }

// Segments returns the underlying segment slice; callers must not modify it.
func (n *Network) Segments() []Segment { return n.segments }

// Streets returns the underlying street slice; callers must not modify it.
func (n *Network) Streets() []Street { return n.streets }

// Bounds returns the bounding rectangle of all vertices. The zero Rect is
// returned for an empty network.
func (n *Network) Bounds() geo.Rect { return n.bounds }

// StreetByName returns the first street with the given name, or nil.
func (n *Network) StreetByName(name string) *Street {
	id, ok := n.byName[name]
	if !ok {
		return nil
	}
	return &n.streets[id]
}

// StreetBounds returns the minimum bounding rectangle of street s.
func (n *Network) StreetBounds(id StreetID) geo.Rect {
	st := n.Street(id)
	var r geo.Rect
	for i, sid := range st.Segments {
		b := n.Segment(sid).Geom.Bounds()
		if i == 0 {
			r = b
		} else {
			r = r.Union(b)
		}
	}
	return r
}

// DistToStreet returns the minimum distance from p to any segment of the
// street (dist(p, s) = min over ℓ∈s of dist(p, ℓ)).
func (n *Network) DistToStreet(p geo.Point, id StreetID) float64 {
	st := n.Street(id)
	d := math.Inf(1)
	for _, sid := range st.Segments {
		if v := n.Segment(sid).Geom.DistToPoint(p); v < d {
			d = v
		}
	}
	return d
}

// Stats summarizes a network in the shape of the paper's Table 1.
type Stats struct {
	NumVertices   int
	NumSegments   int
	NumStreets    int
	MinSegmentLen float64
	MaxSegmentLen float64
	TotalLen      float64
}

// Stats computes summary statistics over the network's segments.
func (n *Network) Stats() Stats {
	st := Stats{
		NumVertices:   len(n.vertices),
		NumSegments:   len(n.segments),
		NumStreets:    len(n.streets),
		MinSegmentLen: math.Inf(1),
	}
	if len(n.segments) == 0 {
		st.MinSegmentLen = 0
		return st
	}
	for i := range n.segments {
		l := n.segments[i].length
		st.TotalLen += l
		if l < st.MinSegmentLen {
			st.MinSegmentLen = l
		}
		if l > st.MaxSegmentLen {
			st.MaxSegmentLen = l
		}
	}
	return st
}

// VertexPairsWithin calls fn once for every pair of distinct vertices at
// most snap apart, with u < v and their Euclidean distance d — the
// pedestrian connectors that join streets whose geometries cross or
// nearly touch without sharing a vertex. Vertices are bucketed on a grid
// of cell size snap, so candidates live in the 3×3 block around each
// vertex and the enumeration is near-linear. Pairs come in a fixed order
// (ascending u, then the block column by column, then bucket order),
// which callers that append edges per pair inherit as their adjacency
// order. A non-positive snap yields no pairs.
func (n *Network) VertexPairsWithin(snap float64, fn func(u, v VertexID, d float64)) {
	if snap <= 0 {
		return
	}
	type cellKey struct{ x, y int32 }
	keyOf := func(p geo.Point) cellKey {
		return cellKey{int32(math.Floor(p.X / snap)), int32(math.Floor(p.Y / snap))}
	}
	buckets := make(map[cellKey][]VertexID)
	for v, p := range n.vertices {
		k := keyOf(p)
		buckets[k] = append(buckets[k], VertexID(v))
	}
	for i, pu := range n.vertices {
		u, k := VertexID(i), keyOf(pu)
		for dx := int32(-1); dx <= 1; dx++ {
			for dy := int32(-1); dy <= 1; dy++ {
				for _, v := range buckets[cellKey{k.x + dx, k.y + dy}] {
					if v <= u {
						continue // each pair once, no self pairs
					}
					if d := pu.Dist(n.vertices[v]); d <= snap {
						fn(u, v, d)
					}
				}
			}
		}
	}
}

// Validate checks the structural invariants the algorithms rely on:
// every segment belongs to exactly one street, street segment lists are
// consecutive (each segment starts where the previous one ended), and all
// vertex references are in range. It returns the first violation found.
func (n *Network) Validate() error {
	owner := make([]int32, len(n.segments))
	for i := range owner {
		owner[i] = -1
	}
	for si := range n.streets {
		st := &n.streets[si]
		if len(st.Segments) == 0 {
			return fmt.Errorf("network: street %d (%q) has no segments", st.ID, st.Name)
		}
		var prev *Segment
		for _, sid := range st.Segments {
			if int(sid) >= len(n.segments) {
				return fmt.Errorf("network: street %d references unknown segment %d", st.ID, sid)
			}
			seg := &n.segments[sid]
			if seg.Street != st.ID {
				return fmt.Errorf("network: segment %d street field %d != owning street %d", sid, seg.Street, st.ID)
			}
			if owner[sid] != -1 {
				return fmt.Errorf("network: segment %d owned by streets %d and %d", sid, owner[sid], st.ID)
			}
			owner[sid] = int32(st.ID)
			if int(seg.From) >= len(n.vertices) || int(seg.To) >= len(n.vertices) {
				return fmt.Errorf("network: segment %d references unknown vertex", sid)
			}
			if prev != nil && prev.To != seg.From {
				return fmt.Errorf("network: street %d not consecutive at segment %d (prev.To=%d, seg.From=%d)",
					st.ID, sid, prev.To, seg.From)
			}
			prev = seg
		}
	}
	for sid, o := range owner {
		if o == -1 {
			return fmt.Errorf("network: segment %d belongs to no street", sid)
		}
	}
	return nil
}

// Builder incrementally assembles a Network.
type Builder struct {
	vertices  []geo.Point
	vertexIdx map[geo.Point]VertexID
	segments  []Segment
	streets   []Street
	err       error
}

// NewBuilder returns an empty builder.
func NewBuilder() *Builder {
	return &Builder{vertexIdx: make(map[geo.Point]VertexID)}
}

// Grow makes room for the given numbers of further vertices and
// streets, so that adding them neither rehashes the vertex map nor
// copies the records already added.
func (b *Builder) Grow(vertices, streets int) {
	b.vertices = slices.Grow(b.vertices, vertices)
	b.streets = slices.Grow(b.streets, streets)
	idx := make(map[geo.Point]VertexID, len(b.vertexIdx)+vertices)
	maps.Copy(idx, b.vertexIdx)
	b.vertexIdx = idx
}

// AddVertex interns a vertex at p, returning its id. Vertices at identical
// coordinates are shared.
func (b *Builder) AddVertex(p geo.Point) VertexID {
	if id, ok := b.vertexIdx[p]; ok {
		return id
	}
	id := VertexID(len(b.vertices))
	b.vertices = append(b.vertices, p)
	b.vertexIdx[p] = id
	return id
}

// RenameStreet changes the name of a street already added. Names are
// fixed once Build has indexed them for StreetByName.
func (b *Builder) RenameStreet(id StreetID, name string) { b.streets[id].Name = name }

// AddStreet appends a street given its polyline of vertex points. Each
// consecutive point pair becomes one segment. At least two points are
// required; zero-length segments are allowed (the paper's datasets contain
// near-zero segments) but identical consecutive points are rejected when
// strict is true elsewhere — here they are kept to mirror real data.
func (b *Builder) AddStreet(name string, polyline []geo.Point) StreetID {
	if b.err != nil {
		return 0
	}
	if len(polyline) < 2 {
		b.err = errors.New("network: street polyline needs at least 2 points")
		return 0
	}
	sid := StreetID(len(b.streets))
	street := Street{ID: sid, Name: name}
	prev := b.AddVertex(polyline[0])
	for _, p := range polyline[1:] {
		cur := b.AddVertex(p)
		segID := SegmentID(len(b.segments))
		g := geo.Segment{A: b.vertices[prev], B: b.vertices[cur]}
		b.segments = append(b.segments, Segment{
			ID:     segID,
			Street: sid,
			From:   prev,
			To:     cur,
			Geom:   g,
			length: g.Length(),
		})
		street.Segments = append(street.Segments, segID)
		street.length += g.Length()
		prev = cur
	}
	b.streets = append(b.streets, street)
	return sid
}

// Build finalizes the network and validates it.
func (b *Builder) Build() (*Network, error) {
	if b.err != nil {
		return nil, b.err
	}
	n := &Network{vertices: b.vertices, segments: b.segments, streets: b.streets,
		byName: make(map[string]StreetID, len(b.streets))}
	for i := len(b.streets) - 1; i >= 0; i-- {
		n.byName[b.streets[i].Name] = StreetID(i) // the first street with a name is written last
	}
	for i, v := range b.vertices {
		r := geo.Rect{MinX: v.X, MinY: v.Y, MaxX: v.X, MaxY: v.Y}
		if i == 0 {
			n.bounds = r
		} else {
			n.bounds = n.bounds.Union(r)
		}
	}
	if err := n.Validate(); err != nil {
		return nil, err
	}
	return n, nil
}
