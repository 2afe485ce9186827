// Command soibench regenerates the tables and figures of the paper's
// evaluation section (Section 5) over the synthetic cities.
//
// Run everything at full dataset scale (the Table 1 sizes):
//
//	soibench -exp all
//
// Run one artifact at a reduced scale for a quick look:
//
//	soibench -exp fig4 -scale 0.1 -cities london
//
// The serving system around the paper (engine, shards, ingest,
// trajectories) is measured by bench/run.sh, not here.
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
)

var validExps = []string{"table1", "table2", "table3", "table4", "fig4", "fig5", "fig6", "ablation", "weighted", "lcmsr", "all"}

func main() {
	log.SetFlags(0)
	log.SetPrefix("soibench: ")
	var (
		exp    = flag.String("exp", "all", "experiment: "+strings.Join(validExps, ", "))
		scale  = flag.Float64("scale", 1.0, "dataset volume scale factor")
		trials = flag.Int("trials", 3, "timing repetitions per measurement (median reported)")
		cities = flag.String("cities", "london,berlin,vienna", "comma-separated subset of cities")
	)
	flag.Parse()

	switch {
	case flag.NArg() > 0:
		log.Fatalf("unexpected argument %q: cities are chosen with -cities", flag.Arg(0))
	case !(*scale > 0) || math.IsInf(*scale, 0):
		log.Fatalf("-scale must be positive and finite, got %g", *scale)
	case *trials < 1:
		log.Fatalf("-trials needs at least one repetition, got %d", *trials)
	}

	want := map[string]bool{}
	for _, e := range strings.Split(*exp, ",") {
		e = strings.TrimSpace(strings.ToLower(e))
		ok := false
		for _, v := range validExps {
			if e == v {
				ok = true
			}
		}
		if !ok {
			log.Fatalf("unknown experiment %q (want one of %s)", e, strings.Join(validExps, ", "))
		}
		want[e] = true
	}
	all := want["all"]
	out := os.Stdout

	start := time.Now()
	fmt.Fprintf(out, "Loading cities (scale %g)...\n", *scale)
	citiesList, err := experiments.LoadCitiesNamed(strings.Split(*cities, ","), *scale)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(out, "Loaded %d cities in %v.\n\n", len(citiesList), time.Since(start).Round(time.Millisecond))

	if all || want["table1"] {
		experiments.PrintTable1(out, experiments.Table1(citiesList))
		fmt.Fprintln(out)
	}
	if all || want["table2"] {
		for _, c := range citiesList {
			res, err := experiments.Table2(c, 10)
			if err != nil {
				log.Fatal(err)
			}
			experiments.PrintTable2(out, res)
			fmt.Fprintln(out)
		}
	}
	if all || want["table3"] {
		rows, err := experiments.Table3(citiesList, 3)
		if err != nil {
			log.Fatal(err)
		}
		experiments.PrintTable3(out, citiesList, rows)
		fmt.Fprintln(out)
	}
	if all || want["table4"] {
		experiments.PrintTable4(out, experiments.Table4(citiesList))
		fmt.Fprintln(out)
	}
	if all || want["fig4"] {
		for _, c := range citiesList {
			panels, err := experiments.Figure4(c, *trials)
			if err != nil {
				log.Fatal(err)
			}
			for _, p := range panels {
				experiments.PrintFigure4(out, p)
				fmt.Fprintln(out)
			}
		}
	}
	if all || want["fig5"] {
		curves, err := experiments.Figure5(citiesList, experiments.Figure6DefaultK)
		if err != nil {
			log.Fatal(err)
		}
		experiments.PrintFigure5(out, curves)
		fmt.Fprintln(out)
	}
	if all || want["fig6"] {
		for _, c := range citiesList {
			panels, err := experiments.Figure6(c, *trials)
			if err != nil {
				log.Fatal(err)
			}
			for _, p := range panels {
				experiments.PrintFigure6(out, p)
				fmt.Fprintln(out)
			}
		}
	}
	if all || want["weighted"] {
		for _, c := range citiesList {
			res, err := experiments.WeightedTable2(c, 10)
			if err != nil {
				log.Fatal(err)
			}
			experiments.PrintWeightedTable2(out, res)
			fmt.Fprintln(out)
		}
	}
	if all || want["lcmsr"] {
		for _, c := range citiesList {
			res, err := experiments.LCMSRCompare(c, 10)
			if err != nil {
				log.Fatal(err)
			}
			experiments.PrintLCMSR(out, res)
			fmt.Fprintln(out)
		}
	}
	if all || want["ablation"] {
		for _, c := range citiesList {
			rows, err := experiments.AblationStrategy(c, *trials)
			if err != nil {
				log.Fatal(err)
			}
			experiments.PrintAblationStrategy(out, rows)
			fmt.Fprintln(out)
			agg, err := experiments.AblationAggregate(c, 10)
			if err != nil {
				log.Fatal(err)
			}
			experiments.PrintAblationAggregate(out, agg)
			fmt.Fprintln(out)
			cs, err := experiments.AblationCellSize(c, experiments.DefaultCellSizes, *trials)
			if err != nil {
				log.Fatal(err)
			}
			experiments.PrintAblationCellSize(out, cs)
			fmt.Fprintln(out)
		}
	}
	fmt.Fprintf(out, "Done in %v.\n", time.Since(start).Round(time.Millisecond))
}
