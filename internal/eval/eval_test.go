package eval

import (
	"bytes"
	"reflect"
	"strings"
	"sync"
	"testing"

	"metascritic/internal/obs"
	"metascritic/internal/stats"
)

var (
	hOnce sync.Once
	hInst *Harness
)

// testHarness returns a shared small harness (building it runs the full
// pipeline on six metros, so tests share one).
func testHarness(t *testing.T) *Harness {
	t.Helper()
	hOnce.Do(func() {
		opt := Options{Scale: 0.1, Seed: 3, PublicPerProbe: 6, Budget: 1200, MaxRank: 10}
		hInst = NewHarness(opt)
		hInst.Cfg.BatchSize = 100
		hInst.Cfg.Rank.Iterations = 5
	})
	return hInst
}

func TestHarnessRunCachesAndOrders(t *testing.T) {
	h := testHarness(t)
	m := h.W.PrimaryMetros()[0]
	r1 := h.Run(m)
	r2 := h.Run(m)
	if r1 != r2 {
		t.Fatalf("Run should cache results")
	}
	if len(h.RunPrimaries()) != 6 {
		t.Fatalf("expected 6 primary results")
	}
}

// TestHarnessSharedStoreHoldsTargetedEvidence pins what E7, Fig. 9M and
// the transferability ablation rely on: every metro run adds its targeted
// traces to the shared store, while the public snapshot keeps the public
// seed alone.
func TestHarnessSharedStoreHoldsTargetedEvidence(t *testing.T) {
	h := testHarness(t)
	for _, res := range h.RunPrimaries() {
		shared := h.P.Store.Estimate(res.Metro, res.Members, obs.NegMetascritic).Mask.Count()
		public := h.pub.Store.Estimate(res.Metro, res.Members, obs.NegMetascritic).Mask.Count()
		if shared <= public {
			t.Errorf("%s: shared store has %d entries, public snapshot %d; targeted evidence is missing",
				h.MetroName(res.Metro), shared, public)
		}
	}
}

func TestSplitsBehave(t *testing.T) {
	h := testHarness(t)
	res := h.RunPrimaries()[0]
	for _, kind := range []SplitKind{Stratified, RandomSplit, CompletelyOut} {
		ev := h.EvaluateSplit(res, kind, 0.2, 42)
		if len(ev.Scores) == 0 {
			t.Fatalf("%v split produced no holdout", kind)
		}
		if ev.AUPRC < 0 || ev.AUPRC > 1 {
			t.Fatalf("%v AUPRC out of range: %v", kind, ev.AUPRC)
		}
	}
	// Stratified should not underperform completely-out on AUPRC (the
	// paper's consistent finding).
	st := h.EvaluateSplit(res, Stratified, 0.2, 7)
	co := h.EvaluateSplit(res, CompletelyOut, 0.2, 7)
	if st.AUPRC+0.15 < co.AUPRC {
		t.Fatalf("stratified AUPRC %.3f unexpectedly far below completely-out %.3f", st.AUPRC, co.AUPRC)
	}
}

// TestEvaluateSplitsMatchesSequential pins the parallel split scorer's
// contract: spec-order output, byte-identical to sequential EvaluateSplit.
func TestEvaluateSplitsMatchesSequential(t *testing.T) {
	h := testHarness(t)
	res := h.RunPrimaries()[0]
	specs := []SplitSpec{
		{Kind: Stratified, Frac: 0.2, Seed: 11},
		{Kind: RandomSplit, Frac: 0.2, Seed: 12},
		{Kind: CompletelyOut, Frac: 0.2, Seed: 13},
		{Kind: Stratified, Frac: 0.3, Seed: 11},
	}
	got := h.EvaluateSplits(res, specs)
	if len(got) != len(specs) {
		t.Fatalf("got %d evals for %d specs", len(got), len(specs))
	}
	for i, s := range specs {
		want := h.EvaluateSplit(res, s.Kind, s.Frac, s.Seed)
		if !reflect.DeepEqual(got[i], want) {
			t.Fatalf("spec %d (%v): parallel eval differs from sequential", i, s)
		}
	}
	if len(h.EvaluateSplits(res, nil)) != 0 {
		t.Fatalf("empty spec list should give empty output")
	}
}

func TestFig1CorrelationShape(t *testing.T) {
	h := testHarness(t)
	rows, tbl := Fig1(h)
	if len(rows) == 0 || len(tbl.Rows) != len(rows) {
		t.Fatalf("Fig1 empty")
	}
	for _, r := range rows {
		for _, v := range []float64{r.PeeringPolicy, r.TrafficProf, r.Eyeballs, r.CustomerCone, r.Country, r.WithTier1} {
			if v < 0 || v > 1 {
				t.Fatalf("correlation out of range: %+v", r)
			}
		}
		// Co-peering with other clouds should carry more signal than
		// peering with a Tier1 (the paper's headline contrast).
		avgCloud := stats.Mean(r.WithClouds)
		if avgCloud < r.WithTier1-0.1 {
			t.Fatalf("cloud co-peering correlation %.3f should exceed Tier1 %.3f", avgCloud, r.WithTier1)
		}
	}
}

func TestFig3HighAUPRC(t *testing.T) {
	h := testHarness(t)
	rows, tbl := Fig3(h)
	if len(rows) != 6 {
		t.Fatalf("want 6 metros, got %d", len(rows))
	}
	var sum float64
	for _, r := range rows {
		sum += r.Stratified.AUPRC
	}
	if avg := sum / 6; avg < 0.7 {
		t.Fatalf("mean stratified AUPRC %.3f too low", avg)
	}
	if !strings.Contains(tbl.String(), "Stratified") {
		t.Fatalf("table missing rows")
	}
}

func TestFig4Calibration(t *testing.T) {
	h := testHarness(t)
	res, _ := Fig4(h)
	if res.NumTargeted == 0 {
		t.Fatalf("no targeted measurements recorded")
	}
	if res.KSInformative < 0 || res.KSInformative > 1 {
		t.Fatalf("KS out of range: %v", res.KSInformative)
	}
	// Calibration should be far better than the worst case.
	if res.KSInformative > 0.5 {
		t.Fatalf("KS %.3f suggests uninformative probabilities", res.KSInformative)
	}
}

func TestFig5CoverageOrdering(t *testing.T) {
	h := testHarness(t)
	rows, _ := Fig5(h)
	if len(rows) != 3 {
		t.Fatalf("want 3 categories")
	}
	// Pairs with VPs should have higher-confidence ratings than pairs
	// without any VP (paper Fig. 5). At laptop scale a selection effect
	// works against this: most easy VP-covered pairs get *measured* and
	// leave the inferred population, so only a gross inversion fails.
	if rows[0].Count > 0 && rows[2].Count > 0 && rows[0].MeanAbs < rows[2].MeanAbs-0.15 {
		t.Fatalf("VP-covered pairs should score higher: %+v", rows)
	}
}

func TestFig6CoverageDisparity(t *testing.T) {
	h := testHarness(t)
	rows, _ := Fig6(h)
	if len(rows) < 6 {
		t.Fatalf("too few metros")
	}
	byName := map[string]Fig6Row{}
	for _, r := range rows {
		byName[r.Metro] = r
	}
	if byName["SaoPaulo"].None <= byName["Amsterdam"].None {
		t.Fatalf("SaoPaulo should have worse VP coverage than Amsterdam")
	}
	for _, r := range rows {
		total := r.InASMetro + r.InAS + r.InCone + r.None
		if total < 0.999 || total > 1.001 {
			t.Fatalf("fractions of %s sum to %v", r.Metro, total)
		}
	}
}

func TestTable2StrategyOrdering(t *testing.T) {
	h := testHarness(t)
	runs, tbl := Table2(h)
	if len(runs) != 6 {
		t.Fatalf("want 6 strategies")
	}
	byName := map[string]*StrategyRun{}
	for _, r := range runs {
		byName[r.Name] = r
	}
	ms := byName["metAScritic"]
	rnd := byName["Random"]
	if ms == nil || rnd == nil {
		t.Fatalf("missing strategies: %v", tbl)
	}
	// At laptop scale the budget saturates the tiny matrix, so strategies
	// converge; metAScritic must not be materially worse than Random (at
	// paper scale the gap is decisively in its favor, Table 2).
	if ms.FScore < rnd.FScore-0.08 {
		t.Fatalf("metAScritic F %.3f should not trail Random %.3f", ms.FScore, rnd.FScore)
	}
	for _, r := range runs {
		if r.Precision < 0 || r.Precision > 1 || r.Recall < 0 || r.Recall > 1 {
			t.Fatalf("bad P/R for %s", r.Name)
		}
		if r.Rank <= 0 {
			t.Fatalf("bad rank for %s", r.Name)
		}
	}
}

func TestFig7InferenceHelps(t *testing.T) {
	h := testHarness(t)
	res, tbl := Fig7(h)
	if res.Configs < 30 {
		t.Fatalf("too few hijack configs: %d", res.Configs)
	}
	if res.MeanInferredHi < res.MeanBGP {
		t.Fatalf("inference topology should not hurt hijack prediction: inf %.3f vs bgp %.3f", res.MeanInferredHi, res.MeanBGP)
	}
	if res.MeanBGP <= 0 || res.MeanInferredHi > 1 {
		t.Fatalf("accuracy out of range")
	}
	if tbl.String() == "" {
		t.Fatalf("empty table")
	}
}

func TestTable3FlatteningDirection(t *testing.T) {
	h := testHarness(t)
	rows, tbl := Table3(h)
	if len(rows) != 7 { // 6 metros + global
		t.Fatalf("want 7 rows, got %d", len(rows))
	}
	// The country columns apply only where the country comparison ran;
	// elsewhere they render as "—", never as a measured zero.
	if rows[6].CountryCompared {
		t.Fatalf("Global row claims a country comparison")
	}
	for i, r := range rows {
		for _, c := range []int{3, 4, 8, 9, 10} {
			if got := tbl.Rows[i][c]; (got == "—") == r.CountryCompared {
				t.Fatalf("%s: country cell %d = %q with CountryCompared=%v", r.Metro, c, got, r.CountryCompared)
			}
		}
	}
	for _, r := range rows {
		if r.ProvM > r.ProvBGP+1e-9 {
			t.Fatalf("%s: measured links should not increase provider fraction (%.3f > %.3f)", r.Metro, r.ProvM, r.ProvBGP)
		}
		if r.ProvInf > r.ProvM+1e-9 {
			t.Fatalf("%s: inferred links should not increase provider fraction", r.Metro)
		}
		if r.ShorterInf+1e-9 < r.ShorterM {
			t.Fatalf("%s: adding inferences should not shrink the shorter-path fraction", r.Metro)
		}
	}
}

func TestTable4Complete(t *testing.T) {
	h := testHarness(t)
	rows, tbl := Table4(h)
	if len(rows) != 6 {
		t.Fatalf("want 6 rows")
	}
	fOf := func(p, rec float64) float64 {
		if p+rec == 0 {
			return 0
		}
		return 2 * p * rec / (p + rec)
	}
	var truthF, pubF float64
	for _, r := range rows {
		if r.NumASes == 0 || r.Rank == 0 {
			t.Fatalf("row incomplete: %+v", r)
		}
		if r.Measurements >= r.ExhaustiveBudget {
			t.Fatalf("%s: issued %d should be far below exhaustive %d", r.Metro, r.Measurements, r.ExhaustiveBudget)
		}
		if len(r.ExternalRecall) < 5 {
			t.Fatalf("%s: missing external datasets: %v", r.Metro, r.ExternalRecall)
		}
		truthF += fOf(r.TruthPrecision, r.TruthRecall)
		pubF += fOf(r.PublicOnlyPrec, r.PublicOnlyRec)
	}
	// Targeted measurements must beat public-only completion on mean
	// F-score (per-metro comparisons are seed-noisy at laptop scale).
	if truthF < pubF-0.1 {
		t.Fatalf("mean truth F %.3f below public-only %.3f", truthF/6, pubF/6)
	}
	if !strings.Contains(tbl.String(), "Amsterdam") {
		t.Fatalf("table missing metro names")
	}
}

func TestTable5AndFig16(t *testing.T) {
	h := testHarness(t)
	counts, tbl := Table5(h)
	totalAdded := 0
	for _, c := range counts {
		totalAdded += c[1]
	}
	if totalAdded == 0 {
		t.Fatalf("metAScritic added no links")
	}
	// A class pair with no public-view link has no growth percentage.
	for _, row := range tbl.Rows {
		if (row[1] == "0") != (row[3] == "—") {
			t.Fatalf("Table 5 row %v: Increase%% must be — exactly when PublicView is 0", row)
		}
	}
	rows, _ := Fig16(h)
	if len(rows) != 6 {
		t.Fatalf("want 6 metros")
	}
	// The first metro (largest, processed first) has no existing links.
	if rows[0].ExistingLinks != 0 {
		t.Fatalf("first metro cannot have previously-seen links")
	}
	for _, r := range rows {
		if r.Measured+r.Inferred != r.ExistingLinks+r.NewLinks {
			t.Fatalf("%s: link accounting mismatch: %+v", r.Metro, r)
		}
	}
}

func TestFig15ThresholdMonotonicity(t *testing.T) {
	h := testHarness(t)
	pts, _ := Fig15(h)
	if len(pts) < 9 {
		t.Fatalf("too few threshold points")
	}
	// Recall must be non-increasing with threshold.
	for k := 1; k < len(pts); k++ {
		if pts[k].Recall > pts[k-1].Recall+1e-9 {
			t.Fatalf("recall not monotone at λ=%.1f", pts[k].Threshold)
		}
	}
	// High thresholds should be high precision (the 0.9 ⇒ 97-99% claim,
	// allowing slack at laptop scale).
	last := pts[len(pts)-2] // λ=0.9
	if last.Precision < 0.6 {
		t.Fatalf("precision at λ=0.9 only %.3f", last.Precision)
	}
}

func TestFig9Transferability(t *testing.T) {
	h := testHarness(t)
	res, _ := Fig9(h)
	if res.Pairs == 0 {
		t.Skip("no multi-metro consistent pairs at this scale")
	}
	if res.FracHalf < res.FracAll {
		t.Fatalf("fraction at half must be >= fraction at all")
	}
	if res.FracHalf < 0.5 {
		t.Fatalf("transferability too weak: %+v", res)
	}
}

func TestFig10RankRecovery(t *testing.T) {
	h := testHarness(t)
	res, _ := Fig10(h, 50, 4)
	if len(res.Series) != 3 {
		t.Fatalf("want 3 series")
	}
	ms := res.Series[0]
	if ms.Name != "metAScritic" {
		t.Fatalf("first series should be metAScritic")
	}
	if ms.BestRank < res.TrueRank-2 || ms.BestRank > res.TrueRank+4 {
		t.Fatalf("recovered rank %d, want near %d", ms.BestRank, res.TrueRank)
	}
}

func TestFig11Discovery(t *testing.T) {
	h := testHarness(t)
	series, _ := Fig11(h)
	if len(series) != 6 {
		t.Fatalf("want 6 strategies")
	}
	for name, batches := range series {
		for k := 1; k < len(batches); k++ {
			if batches[k].Measurements <= batches[k-1].Measurements {
				t.Fatalf("%s: measurement counts not increasing", name)
			}
			// Entries can dip slightly when a new direct observation
			// flips an AS to inconsistent and suppresses its gated
			// negatives; they must still grow overall.
			if float64(batches[k].Entries) < 0.85*float64(batches[k-1].Entries) {
				t.Fatalf("%s: entries collapsed between batches", name)
			}
		}
		if n := len(batches); n > 1 && batches[n-1].Entries < batches[0].Entries {
			t.Fatalf("%s: entries shrank overall", name)
		}
	}
}

func TestFig12LowFillLessAccurate(t *testing.T) {
	h := testHarness(t)
	buckets, _ := Fig12(h)
	if len(buckets) < 2 {
		t.Skip("not enough fill diversity at this scale")
	}
	for _, b := range buckets {
		if b.Accuracy < 0 || b.Accuracy > 1 {
			t.Fatalf("accuracy out of range: %+v", b)
		}
	}
	// Compare only well-populated buckets: tiny buckets are pure noise at
	// this scale. The paper's claim is that rows below the rank threshold
	// misclassify substantially more.
	first, last := buckets[0], buckets[len(buckets)-1]
	if first.Rows >= 30 && last.Rows >= 30 && last.Accuracy+0.05 < first.Accuracy {
		t.Fatalf("rows with more entries should be at least as accurate: %+v vs %+v", first, last)
	}
}

func TestFig13And14Explanations(t *testing.T) {
	h := testHarness(t)
	summary, force, tbl := Fig13And14(h)
	if len(summary) == 0 {
		t.Fatalf("no summary")
	}
	// The paper's Fig. 13 findings, checked qualitatively: link counts,
	// shared footprint and customer-cone features carry the signal, while
	// PeeringDB policy/traffic attributes contribute minimally.
	topK := 8
	if len(summary) < topK {
		topK = len(summary)
	}
	foundStructural := false
	for _, s := range summary[:topK] {
		if strings.Contains(s.Feature, "Links") || strings.Contains(s.Feature, "Overlapping") ||
			strings.Contains(s.Feature, "Cone") || strings.Contains(s.Feature, "Footprint") {
			foundStructural = true
		}
	}
	if !foundStructural {
		t.Fatalf("structural features absent from top-%d: %+v", topK, summary[:topK])
	}
	for _, s := range summary[:3] {
		if strings.Contains(s.Feature, "Peering Policy") || strings.Contains(s.Feature, "Outbound") {
			t.Fatalf("PeeringDB feature %q should not dominate", s.Feature)
		}
	}
	if force == "" {
		t.Fatalf("no force explanation")
	}
	if tbl.String() == "" {
		t.Fatalf("empty table")
	}
}

func TestE3Efficiency(t *testing.T) {
	h := testHarness(t)
	rows, _ := E3(h)
	for _, r := range rows {
		if r.Ratio >= 0.5 {
			t.Fatalf("%s: measurement ratio %.3f not frugal", r.Metro, r.Ratio)
		}
	}
}

func TestE7PolicyOrdering(t *testing.T) {
	h := testHarness(t)
	rows, _ := E7(h)
	if len(rows) != 4 {
		t.Fatalf("want 4 policies")
	}
	byName := map[string]E7Row{}
	for _, r := range rows {
		byName[r.Policy] = r
	}
	// 0-negative has the fewest entries; full negative the most.
	if byName["0-negative"].Entries > byName["metAScritic"].Entries {
		t.Fatalf("0-negative should have fewer entries")
	}
	if byName["Full negative"].Entries < byName["metAScritic"].Entries {
		t.Fatalf("full negative should have at least metAScritic's entries")
	}
	// metAScritic's gates should not be more wrong than full-negative.
	if byName["metAScritic"].WrongNegative > byName["Full negative"].WrongNegative+0.05 {
		t.Fatalf("metAScritic wrong-negative rate should not exceed full negative: %+v", rows)
	}
}

func TestValidationSetsSane(t *testing.T) {
	h := testHarness(t)
	res := h.RunPrimaries()[0]
	sets := h.ValidationSets(res, 5)
	if len(sets) != 7 {
		t.Fatalf("want 7 validation sets, got %d", len(sets))
	}
	for _, vs := range sets {
		if vs.RecallOnly {
			for _, l := range vs.Labels {
				if !l {
					t.Fatalf("%s: recall-only set contains negatives", vs.Name)
				}
			}
		}
		p, r := vs.Score(res, res.Threshold)
		if p < 0 || p > 1 || r < 0 || r > 1 {
			t.Fatalf("%s: score out of range", vs.Name)
		}
	}
}

func TestTableRendering(t *testing.T) {
	tbl := &Table{Title: "T", Header: []string{"a", "bb"}}
	tbl.AddRow("xxx", "1")
	s := tbl.String()
	if !strings.Contains(s, "== T ==") || !strings.Contains(s, "xxx") {
		t.Fatalf("bad table rendering: %q", s)
	}
	if F(0.1234) != "0.123" || D(7) != "7" {
		t.Fatalf("formatters wrong")
	}

	// Columns holding multi-byte runes ("λ", "—") align by rune count:
	// the second column starts at the same rune offset on every line.
	tbl = &Table{Header: []string{"λ", "P"}}
	tbl.AddRow("—", "1")
	tbl.AddRow("0.50", "2")
	for _, line := range strings.Split(strings.TrimSuffix(tbl.String(), "\n"), "\n") {
		if r := []rune(line); len(r) < 7 || r[6] == ' ' || r[5] != ' ' {
			t.Fatalf("column misaligned in %q:\n%s", line, tbl.String())
		}
	}
}

func TestMarkdown(t *testing.T) {
	tbl := &Table{
		Title:  "Demo",
		Header: []string{"a", "b"},
		Rows:   [][]string{{"1", "x|y"}, {"2"}},
	}
	var buf bytes.Buffer
	if err := tbl.Markdown(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"### Demo", "| a | b |", "| --- | --- |", "x\\|y", "| 2 |  |"} {
		if !strings.Contains(out, want) {
			t.Fatalf("markdown missing %q:\n%s", want, out)
		}
	}
	// Empty header renders nothing but the title.
	buf.Reset()
	if err := (&Table{Title: "T"}).Markdown(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "### T") {
		t.Fatalf("title missing")
	}
}
