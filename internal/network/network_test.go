package network

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/geo"
)

func buildL(t *testing.T) *Network {
	t.Helper()
	b := NewBuilder()
	// Two streets forming an L with a shared corner vertex.
	b.AddStreet("Main St", []geo.Point{geo.Pt(0, 0), geo.Pt(1, 0), geo.Pt(2, 0)})
	b.AddStreet("Side St", []geo.Point{geo.Pt(2, 0), geo.Pt(2, 1)})
	n, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return n
}

func TestBuilderBasic(t *testing.T) {
	n := buildL(t)
	if n.NumStreets() != 2 {
		t.Fatalf("NumStreets = %d", n.NumStreets())
	}
	if n.NumSegments() != 3 {
		t.Fatalf("NumSegments = %d", n.NumSegments())
	}
	// Corner vertex (2,0) is shared: 4 distinct vertices total.
	if n.NumVertices() != 4 {
		t.Fatalf("NumVertices = %d", n.NumVertices())
	}
	main := n.StreetByName("Main St")
	if main == nil || len(main.Segments) != 2 {
		t.Fatalf("Main St = %+v", main)
	}
	if got := main.Length(); math.Abs(got-2) > 1e-12 {
		t.Errorf("Main St length = %v", got)
	}
	if n.StreetByName("Nope") != nil {
		t.Error("StreetByName found a ghost")
	}
}

func TestSegmentFields(t *testing.T) {
	n := buildL(t)
	for _, seg := range n.Segments() {
		if got := seg.Geom.Length(); math.Abs(got-seg.Length()) > 1e-12 {
			t.Errorf("segment %d cached length %v != geom %v", seg.ID, seg.Length(), got)
		}
		if n.Vertex(seg.From) != seg.Geom.A || n.Vertex(seg.To) != seg.Geom.B {
			t.Errorf("segment %d endpoints disagree with vertices", seg.ID)
		}
		if int(seg.Street) >= n.NumStreets() {
			t.Errorf("segment %d street out of range", seg.ID)
		}
	}
}

func TestBounds(t *testing.T) {
	n := buildL(t)
	if got := n.Bounds(); got != (geo.R(0, 0, 2, 1)) {
		t.Errorf("Bounds = %v", got)
	}
}

func TestStreetBounds(t *testing.T) {
	n := buildL(t)
	main := n.StreetByName("Main St")
	if got := n.StreetBounds(main.ID); got != (geo.R(0, 0, 2, 0)) {
		t.Errorf("StreetBounds = %v", got)
	}
}

func TestDistToStreet(t *testing.T) {
	n := buildL(t)
	main := n.StreetByName("Main St")
	if got := n.DistToStreet(geo.Pt(1, 2), main.ID); math.Abs(got-2) > 1e-12 {
		t.Errorf("DistToStreet = %v", got)
	}
	if got := n.DistToStreet(geo.Pt(1.5, 0), main.ID); got != 0 {
		t.Errorf("on-street DistToStreet = %v", got)
	}
}

func TestStats(t *testing.T) {
	n := buildL(t)
	st := n.Stats()
	if st.NumSegments != 3 || st.NumStreets != 2 || st.NumVertices != 4 {
		t.Fatalf("Stats = %+v", st)
	}
	if st.MinSegmentLen != 1 || st.MaxSegmentLen != 1 {
		t.Errorf("segment length stats = %+v", st)
	}
	if math.Abs(st.TotalLen-3) > 1e-12 {
		t.Errorf("TotalLen = %v", st.TotalLen)
	}
}

func TestStatsEmpty(t *testing.T) {
	n := &Network{}
	st := n.Stats()
	if st.MinSegmentLen != 0 || st.MaxSegmentLen != 0 || st.NumSegments != 0 {
		t.Errorf("empty Stats = %+v", st)
	}
}

func TestBuilderRejectsShortPolyline(t *testing.T) {
	b := NewBuilder()
	b.AddStreet("bad", []geo.Point{geo.Pt(0, 0)})
	if _, err := b.Build(); err == nil {
		t.Fatal("expected error for 1-point polyline")
	}
}

func TestBuilderSharedVertices(t *testing.T) {
	b := NewBuilder()
	b.AddStreet("a", []geo.Point{geo.Pt(0, 0), geo.Pt(1, 1)})
	b.AddStreet("b", []geo.Point{geo.Pt(1, 1), geo.Pt(2, 2)})
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if n.NumVertices() != 3 {
		t.Fatalf("NumVertices = %d, want 3 (shared corner)", n.NumVertices())
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	tests := []struct {
		name    string
		corrupt func(n *Network)
		wantSub string
	}{
		{
			"segment stolen by wrong street",
			func(n *Network) { n.segments[0].Street = 1 },
			"street field",
		},
		{
			"broken consecutiveness",
			func(n *Network) { n.segments[1].From = n.segments[0].From },
			"not consecutive",
		},
		{
			"empty street",
			func(n *Network) { n.streets[0].Segments = nil },
			"no segments",
		},
		{
			"unknown segment reference",
			func(n *Network) { n.streets[0].Segments = []SegmentID{99} },
			"unknown segment",
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			n := buildL(t)
			tc.corrupt(n)
			err := n.Validate()
			if err == nil {
				t.Fatal("expected validation error")
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}

func TestValidateDoubleOwnership(t *testing.T) {
	n := buildL(t)
	// Make street 1 also claim segment 0 and fix its street field so the
	// earlier checks pass and the double-ownership check fires.
	n.streets[1].Segments = append([]SegmentID{}, n.streets[1].Segments...)
	n.streets[1].Segments = append(n.streets[1].Segments, 0)
	n.segments[0].Street = 0
	err := n.Validate()
	if err == nil {
		t.Fatal("expected validation error")
	}
}

func TestValidateOrphanSegment(t *testing.T) {
	n := buildL(t)
	// Street 1 drops its only segment; give that segment no owner.
	n.streets[1].Segments = []SegmentID{n.streets[1].Segments[0]}
	n.segments[2].Street = 1
	// Remove segment 2 from street 1 to orphan it.
	n.streets[1].Segments = nil
	if err := n.Validate(); err == nil {
		t.Fatal("expected validation error")
	}
}

// Property: random polylines always build into valid networks whose
// street lengths are the sums of their segment lengths, and whose
// segments are numbered street by street (what traj.CorridorRanking's
// per-street runs rely on).
func TestRandomNetworksValid(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		b := NewBuilder()
		nStreets := rng.Intn(20) + 1
		for s := 0; s < nStreets; s++ {
			nPts := rng.Intn(6) + 2
			pts := make([]geo.Point, nPts)
			for i := range pts {
				pts[i] = geo.Pt(rng.Float64()*10, rng.Float64()*10)
			}
			b.AddStreet("S", pts)
		}
		n, err := b.Build()
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		if err := n.Validate(); err != nil {
			t.Fatalf("Validate: %v", err)
		}
		next := SegmentID(0)
		for _, st := range n.Streets() {
			var sum float64
			for _, sid := range st.Segments {
				if sid != next {
					t.Fatalf("street %d holds segment %d, want %d", st.ID, sid, next)
				}
				next++
				sum += n.Segment(sid).Length()
			}
			if math.Abs(sum-st.Length()) > 1e-9 {
				t.Fatalf("street length %v != segment sum %v", st.Length(), sum)
			}
		}
	}
}

// TestVertexPairsWithin holds the bucketed enumeration to the quadratic
// scan on random vertex sets (negative coordinates included): the same
// pairs with the same distances, each once with u < v, in ascending u.
func TestVertexPairsWithin(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		n := &Network{vertices: make([]geo.Point, rng.Intn(150))}
		for i := range n.vertices {
			n.vertices[i] = geo.Pt(rng.Float64()*4-2, rng.Float64()*4-2)
		}
		snap := 0.05 + rng.Float64()*0.5
		type pair struct{ u, v VertexID }
		want := map[pair]float64{}
		for u := range n.vertices {
			for v := u + 1; v < len(n.vertices); v++ {
				if d := n.vertices[u].Dist(n.vertices[v]); d <= snap {
					want[pair{VertexID(u), VertexID(v)}] = d
				}
			}
		}
		got := map[pair]float64{}
		var lastU VertexID
		n.VertexPairsWithin(snap, func(u, v VertexID, d float64) {
			if u >= v || u < lastU {
				t.Fatalf("trial %d: pair (%d, %d) after u=%d", trial, u, v, lastU)
			}
			if _, dup := got[pair{u, v}]; dup {
				t.Fatalf("trial %d: pair (%d, %d) visited twice", trial, u, v)
			}
			got[pair{u, v}], lastU = d, u
		})
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d pairs within %g, want %d", trial, len(got), snap, len(want))
		}
		for p, d := range want {
			if got[p] != d {
				t.Fatalf("trial %d: pair %v distance %v, want %v", trial, p, got[p], d)
			}
		}
	}
	(&Network{vertices: []geo.Point{{}, {}}}).VertexPairsWithin(0, func(u, v VertexID, d float64) {
		t.Fatalf("snap 0 yielded pair (%d, %d)", u, v)
	})
}

// TestStreetByNameFirstWins: with several streets sharing a name the
// lookup answers the first one added, every time, and a name missing
// from the network answers nil.
func TestStreetByNameFirstWins(t *testing.T) {
	b := NewBuilder()
	b.AddStreet("Main St", []geo.Point{geo.Pt(0, 0), geo.Pt(1, 0)})
	b.AddStreet("Side St", []geo.Point{geo.Pt(0, 1), geo.Pt(1, 1)})
	b.AddStreet("Main St", []geo.Point{geo.Pt(0, 2), geo.Pt(1, 2)})
	b.AddStreet("Main St", []geo.Point{geo.Pt(0, 3), geo.Pt(1, 3)})
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if st := n.StreetByName("Main St"); st == nil || st.ID != 0 {
			t.Fatalf("Main St = %+v, want street 0", st)
		}
	}
	if st := n.StreetByName("Side St"); st == nil || st.ID != 1 {
		t.Fatalf("Side St = %+v, want street 1", st)
	}
	if st := n.StreetByName("main st"); st != nil {
		t.Fatalf("lookup is not exact: %+v", st)
	}
}
