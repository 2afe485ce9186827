package experiments

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/datagen"
)

// smallCities loads all three profiles at a tiny scale once per test run.
func smallCities(t *testing.T) []*City {
	t.Helper()
	var names []string
	for _, p := range datagen.Profiles() {
		names = append(names, p.Name)
	}
	cities, err := LoadCitiesNamed(names, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	return cities
}

// smallCity loads one city suitable for description experiments: the
// Small profile keeps a meaningful photo street at low cost.
func smallCity(t *testing.T) *City {
	t.Helper()
	c, err := LoadCity(datagen.Small(1), 1)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestMedianOf(t *testing.T) {
	n := 0
	d := medianOf(5, func() { n++ })
	if n != 5 {
		t.Fatalf("f called %d times", n)
	}
	if d < 0 {
		t.Fatal("negative duration")
	}
	if medianOf(0, func() {}) < 0 {
		t.Fatal("trials<1 must still run once")
	}
}

func TestMs(t *testing.T) {
	if got := ms(1500 * time.Microsecond); got != "1.50" {
		t.Fatalf("ms = %q", got)
	}
}

func TestTable1(t *testing.T) {
	cities := smallCities(t)
	rows := Table1(cities)
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i, r := range rows {
		if r.NumSegments <= 0 || r.NumPOIs <= 0 {
			t.Errorf("row %d empty: %+v", i, r)
		}
		if r.MinSegLenM <= 0 || r.MaxSegLenM <= r.MinSegLenM {
			t.Errorf("row %d length stats: %+v", i, r)
		}
	}
	var buf bytes.Buffer
	PrintTable1(&buf, rows)
	if !strings.Contains(buf.String(), "London") {
		t.Error("printout missing London")
	}
}

func TestTable2(t *testing.T) {
	c := smallCity(t)
	res, err := Table2(c, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TopK) == 0 {
		t.Fatal("no top streets")
	}
	for i, r := range res.Recall {
		if r < 0 || r > 1 {
			t.Errorf("recall[%d] = %v", i, r)
		}
	}
	// On the planted data most of each source list should be recovered.
	if res.Recall[0] < 0.4 && res.Recall[1] < 0.4 {
		t.Errorf("both recalls low: %v", res.Recall)
	}
	var buf bytes.Buffer
	PrintTable2(&buf, res)
	out := buf.String()
	if !strings.Contains(out, "recall@") || !strings.Contains(out, "Figure 2") {
		t.Errorf("printout incomplete:\n%s", out)
	}
}

func TestTable3(t *testing.T) {
	c := smallCity(t)
	rows, err := Table3([]*City{c}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Fatalf("rows = %d, want 9 methods", len(rows))
	}
	var stScore float64
	for _, r := range rows {
		if len(r.Scores) != 1 {
			t.Fatalf("scores = %v", r.Scores)
		}
		if r.Method == "ST_Rel+Div" {
			stScore = r.Scores[0]
		}
	}
	if stScore != 1.0 {
		t.Fatalf("ST_Rel+Div normalized score = %v, want 1", stScore)
	}
	var buf bytes.Buffer
	PrintTable3(&buf, []*City{c}, rows)
	if !strings.Contains(buf.String(), "S_Rel") {
		t.Error("printout missing methods")
	}
}

func TestTable4(t *testing.T) {
	cities := smallCities(t)
	rows := Table4(cities)
	for _, r := range rows {
		if len(r.Counts) != 4 {
			t.Fatalf("counts = %v", r.Counts)
		}
		// Counts are cumulative over the keyword prefix: non-decreasing.
		for i := 1; i < len(r.Counts); i++ {
			if r.Counts[i] < r.Counts[i-1] {
				t.Errorf("%s: counts not monotone: %v", r.Dataset, r.Counts)
			}
		}
	}
	var buf bytes.Buffer
	PrintTable4(&buf, rows)
	if !strings.Contains(buf.String(), "|Ψ|=4") {
		t.Error("printout missing header")
	}
}

func TestFigure4(t *testing.T) {
	c := smallCity(t)
	panels, err := Figure4(c, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(panels) != 2 {
		t.Fatalf("panels = %d", len(panels))
	}
	if len(panels[0].Points) != len(Figure4Ks) {
		t.Fatalf("k panel points = %d", len(panels[0].Points))
	}
	if len(panels[1].Points) != len(KeywordProgression) {
		t.Fatalf("psi panel points = %d", len(panels[1].Points))
	}
	for _, p := range panels {
		for _, pt := range p.Points {
			if pt.SOITotal <= 0 || pt.BLTotal <= 0 {
				t.Errorf("%s x=%d: zero time", p.Varying, pt.X)
			}
			if pt.SeenFrac < 0 || pt.SeenFrac > 1 {
				t.Errorf("seen fraction %v", pt.SeenFrac)
			}
		}
	}
	var buf bytes.Buffer
	PrintFigure4(&buf, panels[0])
	if !strings.Contains(buf.String(), "speedup") {
		t.Error("printout missing speedup column")
	}
}

func TestFigure5(t *testing.T) {
	c := smallCity(t)
	curves, err := Figure5([]*City{c}, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(curves) != 1 || len(curves[0].Points) != len(Figure5Lambdas) {
		t.Fatalf("curves = %+v", curves)
	}
	pts := curves[0].Points
	// λ=0 maximizes relevance; λ=1 maximizes diversity (normalized to 1).
	if pts[0].Relevance != 1 {
		t.Errorf("rel at λ=0 = %v, want 1 (max)", pts[0].Relevance)
	}
	if pts[len(pts)-1].Diversity != 1 {
		t.Errorf("div at λ=1 = %v, want 1 (max)", pts[len(pts)-1].Diversity)
	}
	// Diversity should not decrease as λ grows (greedy is not perfectly
	// monotone, so allow small slack).
	for i := 1; i < len(pts); i++ {
		if pts[i].Diversity < pts[i-1].Diversity-0.2 {
			t.Errorf("diversity dropped sharply at λ=%v: %v -> %v",
				pts[i].Lambda, pts[i-1].Diversity, pts[i].Diversity)
		}
	}
	var buf bytes.Buffer
	PrintFigure5(&buf, curves)
	if !strings.Contains(buf.String(), "lambda") {
		t.Error("printout missing lambda column")
	}
}

func TestFigure6(t *testing.T) {
	c := smallCity(t)
	panels, err := Figure6(c, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(panels) != 3 {
		t.Fatalf("panels = %d", len(panels))
	}
	wantLens := []int{len(Figure6Ks), len(Figure6Lambdas), len(Figure6Ws)}
	for i, p := range panels {
		if len(p.Points) != wantLens[i] {
			t.Fatalf("panel %s points = %d", p.Varying, len(p.Points))
		}
		for _, pt := range p.Points {
			if pt.STTotal <= 0 || pt.BLTotal <= 0 {
				t.Errorf("%s x=%v: zero time", p.Varying, pt.X)
			}
			if pt.Photos <= 0 || pt.Baseline <= 0 {
				t.Errorf("%s x=%v: zero work counters", p.Varying, pt.X)
			}
		}
	}
	var buf bytes.Buffer
	PrintFigure6(&buf, panels[0])
	if !strings.Contains(buf.String(), "ST_Rel+Div") {
		t.Error("printout missing method")
	}
}

func TestDescriptionContext(t *testing.T) {
	c := smallCity(t)
	ctx, st, err := descriptionContext(c)
	if err != nil {
		t.Fatal(err)
	}
	if st.Name != c.Dataset.Truth.PhotoStreet {
		t.Errorf("street = %q", st.Name)
	}
	if ctx.Len() < 10 {
		t.Errorf("photo street context has only %d photos", ctx.Len())
	}
}

func TestLoadCitiesPropagatesErrors(t *testing.T) {
	bad := datagen.Small(1)
	bad.NumPOIs = -1
	if _, err := LoadCity(bad, 1); err == nil {
		t.Fatal("expected error")
	}
}

func TestAblationStrategy(t *testing.T) {
	c := smallCity(t)
	rows, err := AblationStrategy(c, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(KeywordProgression) {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.CostAware <= 0 || r.Drain <= 0 {
			t.Errorf("|Psi|=%d: zero times", r.Psi)
		}
		if r.SeenCostAware <= 0 || r.SeenCostAware > 1 {
			t.Errorf("|Psi|=%d: cost-aware saw %v of the segments", r.Psi, r.SeenCostAware)
		}
		if r.SeenDrain <= 0 || r.SeenDrain > 1 {
			t.Errorf("|Psi|=%d: drain saw %v of the segments", r.Psi, r.SeenDrain)
		}
		if r.SweepQueries != 48 {
			t.Errorf("|Psi|=%d: swept %d queries, want 2 keyword sets × 8 k × 3 eps", r.Psi, r.SweepQueries)
		}
		if r.SweepCostAware <= 0 || r.SweepDrain <= 0 || r.Losses < 0 || r.Losses > r.SweepQueries {
			t.Errorf("|Psi|=%d: sweep totals %v %v, %d losses", r.Psi, r.SweepCostAware, r.SweepDrain, r.Losses)
		}
		if (r.Losses > 0) != (r.WorstDrain > r.WorstCostAware) {
			t.Errorf("|Psi|=%d: %d losses, worst %v → %v", r.Psi, r.Losses, r.WorstCostAware, r.WorstDrain)
		}
	}
	var buf bytes.Buffer
	PrintAblationStrategy(&buf, rows)
	for _, want := range []string{"cost-aware", "drain", "losses"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("printout lacks %q", want)
		}
	}
	PrintAblationStrategy(&buf, nil) // no-op on empty input
}

func TestAblationAggregate(t *testing.T) {
	c := smallCity(t)
	rows, err := AblationAggregate(c, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Overlap != 1 {
		t.Fatalf("max-segment overlap with itself = %v", rows[0].Overlap)
	}
	for _, r := range rows {
		if r.Overlap < 0 || r.Overlap > 1 {
			t.Errorf("%v overlap = %v", r.Aggregate, r.Overlap)
		}
		if r.TopStreet == "" {
			t.Errorf("%v has no top street", r.Aggregate)
		}
	}
	var buf bytes.Buffer
	PrintAblationAggregate(&buf, rows)
	if !strings.Contains(buf.String(), "max-segment") {
		t.Error("printout incomplete")
	}
}

func TestAblationCellSize(t *testing.T) {
	c := smallCity(t)
	rows, err := AblationCellSize(c, []float64{Epsilon, 2 * Epsilon}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Cells <= 0 || r.SOITime <= 0 || r.BLTime <= 0 {
			t.Errorf("row %+v has zero fields", r)
		}
	}
	// Larger cells produce fewer non-empty cells.
	if rows[1].Cells >= rows[0].Cells {
		t.Errorf("cell counts not decreasing: %d then %d", rows[0].Cells, rows[1].Cells)
	}
	var buf bytes.Buffer
	PrintAblationCellSize(&buf, rows)
	if !strings.Contains(buf.String(), "cells") {
		t.Error("printout incomplete")
	}
}

func TestWeightedTable2(t *testing.T) {
	c := smallCity(t)
	res, err := WeightedTable2(c, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.UnweightedTopK) == 0 || len(res.WeightedTopK) == 0 {
		t.Fatal("empty rankings")
	}
	for i := range res.WeightedRecall {
		if res.WeightedRecall[i] < res.UnweightedRecall[i]-0.21 {
			t.Errorf("weighting hurt recall vs source %d: %.2f -> %.2f",
				i+1, res.UnweightedRecall[i], res.WeightedRecall[i])
		}
	}
	var buf bytes.Buffer
	PrintWeightedTable2(&buf, res)
	if !strings.Contains(buf.String(), "prestige-weighted") {
		t.Error("printout incomplete")
	}
}

func TestLCMSRCompare(t *testing.T) {
	c := smallCity(t)
	res, err := LCMSRCompare(c, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.SOIStreets) == 0 || len(res.RegionStreets) == 0 {
		t.Fatalf("empty answers: %+v", res)
	}
	if res.Budget <= 0 {
		t.Fatalf("budget = %v", res.Budget)
	}
	// The paper's critique: the connected region covers no more sites
	// than the disjoint k-SOI ranking.
	if res.RegionSites > res.SOISites {
		t.Errorf("region covers %d sites, SOI %d", res.RegionSites, res.SOISites)
	}
	var buf bytes.Buffer
	PrintLCMSR(&buf, res)
	if !strings.Contains(buf.String(), "LCMSR") {
		t.Error("printout incomplete")
	}
}

func TestTable2RankMetrics(t *testing.T) {
	c := smallCity(t)
	res, err := Table2(c, 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.NDCG <= 0 || res.NDCG > 1 {
		t.Errorf("nDCG = %v", res.NDCG)
	}
	if res.Tau < -1 || res.Tau > 1 {
		t.Errorf("tau = %v", res.Tau)
	}
	var buf bytes.Buffer
	PrintTable2(&buf, res)
	if !strings.Contains(buf.String(), "nDCG") {
		t.Error("printout missing nDCG")
	}
}
