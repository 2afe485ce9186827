package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"

	soi "repro"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/geo"
	"repro/internal/network"
	"repro/internal/poi"
	"repro/internal/traj"
	"repro/internal/vocab"
)

// check is one answer check: a request whose reply must equal, name for
// name and bit for bit, what the driver computes from its own copy of
// the data by a route that shares no code with the serving path's
// pruning. Checks run after the measured phase, outside every timing.
type check struct {
	req    request
	verify func(body []byte) error
}

// Sample sizes of the answer checks.
const (
	ksoiCheckQueries = 24
	trajCheckQueries = 12 // of each trajectory endpoint
)

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// referenceIndex builds the index the checks evaluate against. It is
// never compacted: core.Index.Baseline scans the plain grid, the
// paper's BL, and never touches the slab the servers answer from.
func referenceIndex(net *network.Network, pois *poi.Corpus) (*core.Index, error) {
	return core.NewIndex(net, pois, core.IndexConfig{CellSize: soi.DefaultCellSize})
}

// ksoiChecks compares /api/streets answers with Baseline: same streets
// in the same order, Float64bits-equal interest after the JSON round
// trip.
func ksoiChecks(ix *core.Index, qs []ksoiQuery) []check {
	out := make([]check, len(qs))
	for i, q := range qs {
		q := q
		out[i] = check{req: q.request(), verify: func(body []byte) error {
			var got streetsBody
			if err := json.Unmarshal(body, &got); err != nil {
				return err
			}
			want, _, err := ix.Baseline(q.core())
			if err != nil {
				return err
			}
			if len(got.Streets) != len(want) {
				return fmt.Errorf("%d streets, baseline has %d", len(got.Streets), len(want))
			}
			for j, w := range want {
				g := got.Streets[j]
				if g.Name != w.Name || !sameBits(g.Interest, w.Interest) {
					return fmt.Errorf("rank %d: got %q %v, baseline %q %v", j, g.Name, g.Interest, w.Name, w.Interest)
				}
			}
			return nil
		}}
	}
	return out
}

// corpusWithWrites replays what a live server holds after acknowledging
// the given write batches: the base POIs followed by the written ones
// in arrival order, interned into a fresh dictionary as every ingest
// epoch does.
func corpusWithWrites(ds *datagen.Dataset, batches [][]poiBody) *poi.Corpus {
	dict := vocab.NewDictionary()
	b := poi.NewBuilder(dict)
	base := ds.POIs.Dict()
	for _, p := range ds.POIs.All() {
		b.AddWeighted(p.Loc, base.Names(p.Keywords), p.Weight)
	}
	for _, batch := range batches {
		for _, p := range batch {
			b.AddWeighted(geo.Pt(p.X, p.Y), p.Keywords, 0)
		}
	}
	return b.Build()
}

func interestOf(ix *core.Index, keywords []string, eps float64) traj.InterestFunc {
	set, _ := ix.POIs().Dict().LookupAll(keywords)
	return func(sid network.SegmentID) float64 { return ix.SegmentInterest(sid, set, eps) }
}

// streetsAlong names the streets a route walks, consecutive repeats
// collapsed, as the engine renders them.
func streetsAlong(net *network.Network, segs []network.SegmentID) []string {
	var out []string
	for _, sid := range segs {
		name := net.Street(net.Segment(sid).Street).Name
		if n := len(out); n == 0 || out[n-1] != name {
			out = append(out, name)
		}
	}
	return out
}

// routeChecks compares /api/routes/topk answers with a direct
// traj.TopKRoutes call over the reference index.
func routeChecks(ix *core.Index, g *traj.Graph, reqs []routeRequest) []check {
	net := g.Network()
	out := make([]check, len(reqs))
	for i, rr := range reqs {
		rr := rr
		out[i] = check{req: postJSON(opRoutes, "/api/routes/topk", rr.K, rr), verify: func(body []byte) error {
			var got routesBody
			if err := json.Unmarshal(body, &got); err != nil {
				return err
			}
			q, err := routeSpec{Src: rr.Src, Dst: rr.Dst, Budget: rr.Budget}.query(net, rr.K, rr.Alpha)
			if err != nil {
				return err
			}
			want, _, err := traj.TopKRoutes(context.Background(), g, interestOf(ix, rr.Keywords, rr.Eps), q, traj.SearchOptions{})
			if err != nil {
				return err
			}
			if len(got.Routes) != len(want) {
				return fmt.Errorf("%d routes, direct search has %d", len(got.Routes), len(want))
			}
			for j, w := range want {
				g := got.Routes[j]
				if !sameBits(g.Score, w.Score) || !sameBits(g.Length, w.Length) || !sameBits(g.Interest, w.Interest) {
					return fmt.Errorf("rank %d: got score %v length %v, direct search %v %v", j, g.Score, g.Length, w.Score, w.Length)
				}
				if names := streetsAlong(net, w.Segments); fmt.Sprint(names) != fmt.Sprint(g.Streets) {
					return fmt.Errorf("rank %d: got streets %v, direct search %v", j, g.Streets, names)
				}
			}
			return nil
		}}
	}
	return out
}

// trajSOIChecks compares /api/trajectories/soi answers with a direct
// traj.TrajectorySOI call over the reference index.
func trajSOIChecks(ix *core.Index, reqs []trajRequest) []check {
	net := ix.Network()
	radius := traj.DefaultSnap(net)
	m := traj.NewMatcher(net, radius)
	out := make([]check, len(reqs))
	for i, tr := range reqs {
		tr := tr
		out[i] = check{req: postJSON(opTrajSOI, "/api/trajectories/soi", tr.K, tr), verify: func(body []byte) error {
			var got trajBody
			if err := json.Unmarshal(body, &got); err != nil {
				return err
			}
			want, _, err := traj.TrajectorySOI(context.Background(), m, interestOf(ix, tr.Keywords, tr.Eps),
				traj.TrajQuery{Traces: tr.points(), K: tr.K, Radius: radius})
			if err != nil {
				return err
			}
			if len(got.Streets) != len(want) {
				return fmt.Errorf("%d streets, direct call has %d", len(got.Streets), len(want))
			}
			for j, w := range want {
				g := got.Streets[j]
				if g.Name != w.Name || !sameBits(g.Score, w.Score) || !sameBits(g.Coverage, w.Coverage) || !sameBits(g.Interest, w.Interest) {
					return fmt.Errorf("rank %d: got %q %v, direct call %q %v", j, g.Name, g.Score, w.Name, w.Score)
				}
			}
			return nil
		}}
	}
	return out
}
