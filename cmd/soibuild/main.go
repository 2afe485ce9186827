// Command soibuild compiles a dataset into a binary index snapshot (.soi
// file) that soiserve -index memory-maps at startup, skipping all index
// construction.
//
// Build from a CSV dataset directory (see soigen):
//
//	soibuild -data ./data/berlin -out berlin.soi
//
// Or generate a synthetic city and snapshot it in one step:
//
//	soibuild -city berlin -scale 0.25 -out berlin.soi
//
// The snapshot embeds the road network, the POI and photo corpora, the
// keyword dictionary and the compact slab index at soi.DefaultCellSize,
// the cell size every soiserve engine builds at. Serving from it is
// bit-identical to building the index from the same data.
//
// With -shards N the dataset is spatially partitioned instead: one .soi
// snapshot per populated tile plus a JSON manifest at -out tying them
// together (tile grid, global bounds, halo, id maps). The manifest is
// what the scatter-gather coordinator loads; -halo bounds the largest
// query ε the partition answers exactly:
//
//	soibuild -city berlin -shards 4 -halo 0.0012 -out berlin.shards.json
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"

	soi "repro"
	"repro/internal/core"
	"repro/internal/dataio"
	"repro/internal/shard"
	"repro/internal/snapshot"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("soibuild: ")
	var (
		city    = flag.String("city", "", "generate a synthetic city: london, berlin, vienna, small")
		scale   = flag.Float64("scale", 1.0, "volume scale factor for -city")
		seed    = flag.Int64("seed", 0, "override the profile seed for -city (0 keeps the default)")
		dataDir = flag.String("data", "", "load a CSV dataset directory instead of generating")
		out     = flag.String("out", "world.soi", "output snapshot path (manifest path with -shards)")
		shards  = flag.Int("shards", 0, "partition into N spatial tiles and write per-shard snapshots + manifest")
		halo    = flag.Float64("halo", 0.0012, "POI replication radius for -shards (largest exact query ε)")
	)
	flag.Parse()
	if *shards < 0 {
		log.Fatalf("-shards must be non-negative, got %d", *shards)
	}
	if *shards > 0 && (!(*halo > 0) || math.IsInf(*halo, 0)) {
		log.Fatalf("-halo must be positive and finite with -shards, got %g", *halo)
	}

	net, pois, photos, err := dataio.Load(*city, *scale, *seed, *dataDir)
	if err != nil {
		log.Fatal(err)
	}
	if *shards > 0 {
		w, err := shard.Partition(net, pois, shard.Config{
			Tiles: *shards, Halo: *halo, CellSize: soi.DefaultCellSize,
		})
		if err != nil {
			log.Fatal(err)
		}
		if err := shard.WriteSnapshots(*out, w); err != nil {
			log.Fatal(err)
		}
		ns := net.Stats()
		var held int
		for _, s := range w.Shards {
			held += s.POIs.Len()
		}
		fmt.Printf("%s: %d streets, %d segments, %d POIs across %d shards (%d×%d tiles, halo %g, replication %.2f×), cell %g -> %s\n",
			datasetName(*city, *dataDir), ns.NumStreets, ns.NumSegments, pois.Len(),
			len(w.Shards), w.TilesX, w.TilesY, *halo, float64(held)/float64(max(pois.Len(), 1)), soi.DefaultCellSize, *out)
		return
	}
	slab, err := core.BuildSlab(net, pois, core.IndexConfig{CellSize: soi.DefaultCellSize})
	if err != nil {
		log.Fatalf("building slab: %v", err)
	}
	if err := snapshot.WriteFile(*out, &snapshot.Snapshot{
		Net: net, POIs: pois, Photos: photos, Slab: slab,
	}); err != nil {
		log.Fatal(err)
	}
	st, err := os.Stat(*out)
	if err != nil {
		log.Fatal(err)
	}
	ns := net.Stats()
	fmt.Printf("%s: %d streets, %d segments, %d POIs, %d photos, cell %g -> %s (%d bytes)\n",
		datasetName(*city, *dataDir), ns.NumStreets, ns.NumSegments,
		pois.Len(), photos.Len(), soi.DefaultCellSize, *out, st.Size())
}

func datasetName(city, dataDir string) string {
	if dataDir != "" {
		return dataDir
	}
	return city
}
