package metascritic_test

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (see DESIGN.md §3 for the index). Each benchmark drives the
// corresponding experiment against a shared synthetic world and reports
// the headline quantity as a custom metric; run with
//
//	go test -bench=. -benchmem
//
// Scale with METASCRITIC_BENCH_SCALE (default 0.15; 1.0 approaches the
// paper's metro sizes and takes correspondingly longer).

import (
	"os"
	"strconv"
	"sync"
	"testing"

	"metascritic/internal/eval"
)

var (
	benchOnce sync.Once
	benchH    *eval.Harness
)

func benchHarness(b *testing.B) *eval.Harness {
	b.Helper()
	benchOnce.Do(func() {
		scale := 0.15
		if s := os.Getenv("METASCRITIC_BENCH_SCALE"); s != "" {
			if v, err := strconv.ParseFloat(s, 64); err == nil && v > 0 {
				scale = v
			}
		}
		benchH = eval.NewHarness(eval.Options{
			Scale:  scale,
			Seed:   1,
			Budget: int(40000 * scale),
		})
		// Pre-run the six study metros so per-benchmark timings measure
		// the experiment itself, not the shared pipeline warm-up.
		benchH.RunPrimaries()
	})
	return benchH
}

func BenchmarkFig1_FeatureCorrelations(b *testing.B) {
	h := benchHarness(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, tbl := eval.Fig1(h)
		if i == 0 {
			b.Log("\n" + tbl.String())
			var cloud, t1 float64
			for _, r := range rows {
				for _, c := range r.WithClouds {
					cloud += c
				}
				t1 += r.WithTier1
			}
			b.ReportMetric(cloud/float64(len(rows)*3), "cloud-copeering-r")
			b.ReportMetric(t1/float64(len(rows)), "tier1-copeering-r")
		}
	}
}

func BenchmarkFig3_PrecisionRecall(b *testing.B) {
	h := benchHarness(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, tbl := eval.Fig3(h)
		if i == 0 {
			b.Log("\n" + tbl.String())
			var auprc float64
			for _, r := range rows {
				auprc += r.Stratified.AUPRC
			}
			b.ReportMetric(auprc/float64(len(rows)), "mean-stratified-AUPRC")
		}
	}
}

func BenchmarkTable2_SelectionStrategies(b *testing.B) {
	h := benchHarness(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runs, tbl := eval.Table2(h)
		if i == 0 {
			b.Log("\n" + tbl.String())
			for _, r := range runs {
				if r.Name == "metAScritic" {
					b.ReportMetric(r.FScore, "metascritic-F")
				}
			}
		}
	}
}

func BenchmarkFig4_ProbCalibration(b *testing.B) {
	h := benchHarness(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, tbl := eval.Fig4(h)
		if i == 0 {
			b.Log("\n" + tbl.String())
			b.ReportMetric(res.KSInformative, "KS-informative")
		}
	}
}

func BenchmarkFig5_RatingsVsCoverage(b *testing.B) {
	h := benchHarness(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, tbl := eval.Fig5(h)
		if i == 0 {
			b.Log("\n" + tbl.String())
			if len(rows) == 3 {
				b.ReportMetric(rows[0].MeanAbs-rows[2].MeanAbs, "vp-vs-novp-rating-gap")
			}
		}
	}
}

func BenchmarkFig6_VPCoverage(b *testing.B) {
	h := benchHarness(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, tbl := eval.Fig6(h)
		if i == 0 {
			b.Log("\n" + tbl.String())
			var worst float64
			for _, r := range rows {
				if r.None > worst {
					worst = r.None
				}
			}
			b.ReportMetric(worst, "worst-metro-no-vp-frac")
		}
	}
}

func BenchmarkFig7_HijackPrediction(b *testing.B) {
	h := benchHarness(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, tbl := eval.Fig7(h)
		if i == 0 {
			b.Log("\n" + tbl.String())
			b.ReportMetric(res.MeanBGP, "accuracy-bgp")
			b.ReportMetric(res.MeanInferredHi, "accuracy-inferred")
		}
	}
}

func BenchmarkTable3_Flattening(b *testing.B) {
	h := benchHarness(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, tbl := eval.Table3(h)
		if i == 0 {
			b.Log("\n" + tbl.String())
			var drop float64
			n := 0
			for _, r := range rows {
				if r.Metro != "Global" {
					drop += r.ProvBGP - r.ProvInf
					n++
				}
			}
			b.ReportMetric(drop/float64(n), "provider-frac-drop")
		}
	}
}

func BenchmarkTable4_FullEvaluation(b *testing.B) {
	h := benchHarness(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, tbl := eval.Table4(h)
		if i == 0 {
			b.Log("\n" + tbl.String())
			var p, r float64
			for _, row := range rows {
				p += row.TruthPrecision
				r += row.TruthRecall
			}
			b.ReportMetric(p/float64(len(rows)), "mean-truth-precision")
			b.ReportMetric(r/float64(len(rows)), "mean-truth-recall")
		}
	}
}

func BenchmarkFig8_ROCClassifiers(b *testing.B) {
	h := benchHarness(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, tbl := eval.Fig8(h)
		if i == 0 {
			b.Log("\n" + tbl.String())
			var ms, rf, ncf float64
			for _, r := range rows {
				ms += r.MetascriticAUC
				rf += r.RFAUC
				ncf += r.NCFAUC
			}
			n := float64(len(rows))
			b.ReportMetric(ms/n, "AUC-metascritic")
			b.ReportMetric(rf/n, "AUC-randomforest")
			b.ReportMetric(ncf/n, "AUC-ncf")
		}
	}
}

func BenchmarkFig9_Transferability(b *testing.B) {
	h := benchHarness(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, tbl := eval.Fig9(h)
		if i == 0 {
			b.Log("\n" + tbl.String())
			b.ReportMetric(res.FracAll, "all-locations-frac")
			b.ReportMetric(res.FracHalf, "half-locations-frac")
		}
	}
}

func BenchmarkFig9M_MeasuredTransferability(b *testing.B) {
	h := benchHarness(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, tbl := eval.Fig9Measured(h)
		if i == 0 {
			b.Log("\n" + tbl.String())
			b.ReportMetric(res.FracAll, "all-locations-frac")
			b.ReportMetric(res.FracHalf, "half-locations-frac")
		}
	}
}

func BenchmarkFig10_RankRecovery(b *testing.B) {
	h := benchHarness(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, tbl := eval.Fig10(h, 60, 5)
		if i == 0 {
			b.Log("\n" + tbl.String())
			b.ReportMetric(float64(res.Series[0].BestRank), "recovered-rank")
			b.ReportMetric(float64(res.TrueRank), "true-rank")
		}
	}
}

func BenchmarkFig11_BatchDiscovery(b *testing.B) {
	h := benchHarness(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		series, tbl := eval.Fig11(h)
		if i == 0 {
			b.Log("\n" + tbl.String())
			if ms := series["metAScritic"]; len(ms) > 0 {
				b.ReportMetric(float64(ms[len(ms)-1].Entries), "final-entries")
			}
		}
	}
}

func BenchmarkFig12_EntriesVsAccuracy(b *testing.B) {
	h := benchHarness(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buckets, tbl := eval.Fig12(h)
		if i == 0 {
			b.Log("\n" + tbl.String())
			if len(buckets) > 0 {
				b.ReportMetric(buckets[len(buckets)-1].Accuracy, "top-bucket-accuracy")
			}
		}
	}
}

func BenchmarkFig13_ShapleySummary(b *testing.B) {
	h := benchHarness(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		summary, _, tbl := eval.Fig13And14(h)
		if i == 0 {
			b.Log("\n" + tbl.String())
			if len(summary) > 0 {
				b.ReportMetric(summary[0].MeanAbsPhi, "top-feature-mean-abs-phi")
			}
		}
	}
}

func BenchmarkFig14_ShapleyForce(b *testing.B) {
	h := benchHarness(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, force, _ := eval.Fig13And14(h)
		if i == 0 {
			b.Log("\nFig. 14 force explanation:\n" + force)
		}
	}
}

func BenchmarkFig15_ThresholdSweep(b *testing.B) {
	h := benchHarness(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts, tbl := eval.Fig15(h)
		if i == 0 {
			b.Log("\n" + tbl.String())
			for _, p := range pts {
				if p.Threshold > 0.89 && p.Threshold < 0.91 {
					b.ReportMetric(p.Precision, "precision-at-0.9")
				}
			}
		}
	}
}

func BenchmarkTable5_ClassPairLinks(b *testing.B) {
	h := benchHarness(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		counts, tbl := eval.Table5(h)
		if i == 0 {
			b.Log("\n" + tbl.String())
			total := 0
			for _, c := range counts {
				total += c[1]
			}
			b.ReportMetric(float64(total), "links-added")
		}
	}
}

func BenchmarkFig16_PerMetroLinks(b *testing.B) {
	h := benchHarness(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, tbl := eval.Fig16(h)
		if i == 0 {
			b.Log("\n" + tbl.String())
			total := 0
			for _, r := range rows {
				total += r.Measured + r.Inferred
			}
			b.ReportMetric(float64(total), "total-links")
		}
	}
}

func BenchmarkE3_Efficiency(b *testing.B) {
	h := benchHarness(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, tbl := eval.E3(h)
		if i == 0 {
			b.Log("\n" + tbl.String())
			var ratio float64
			for _, r := range rows {
				ratio += r.Ratio
			}
			b.ReportMetric(ratio/float64(len(rows)), "mean-budget-ratio")
		}
	}
}

func BenchmarkAblation_Epsilon(b *testing.B) {
	h := benchHarness(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, tbl := eval.AblationEpsilon(h)
		if i == 0 {
			b.Log("\n" + tbl.String())
			for _, r := range rows {
				if r.Epsilon == 0.1 {
					b.ReportMetric(r.FScore, "F-at-eps-0.1")
				}
			}
		}
	}
}

func BenchmarkAblation_FeatureWeight(b *testing.B) {
	h := benchHarness(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, tbl := eval.AblationFeatureWeight(h)
		if i == 0 {
			b.Log("\n" + tbl.String())
			b.ReportMetric(rows[0].ComplOutAUPRC, "comploutAUPRC-no-features")
		}
	}
}

func BenchmarkAblation_Transferability(b *testing.B) {
	h := benchHarness(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, tbl := eval.AblationTransferability(h)
		if i == 0 {
			b.Log("\n" + tbl.String())
			gained := 0
			for _, r := range rows {
				gained += r.EntriesTransfer - r.EntriesLocal
			}
			b.ReportMetric(float64(gained), "entries-gained-by-transfer")
		}
	}
}

func BenchmarkAblation_HierarchicalPrior(b *testing.B) {
	h := benchHarness(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, tbl := eval.AblationHierarchicalPrior(h)
		if i == 0 {
			b.Log("\n" + tbl.String())
			if len(rows) == 2 && rows[1].Bootstrap > 0 {
				b.ReportMetric(float64(rows[0].Bootstrap)/float64(rows[1].Bootstrap), "bootstrap-savings-factor")
			}
		}
	}
}

func BenchmarkE7_NonExistence(b *testing.B) {
	h := benchHarness(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, tbl := eval.E7(h)
		if i == 0 {
			b.Log("\n" + tbl.String())
			for _, r := range rows {
				if r.Policy == "metAScritic" {
					b.ReportMetric(r.WrongNegative, "metascritic-wrong-neg-frac")
				}
			}
		}
	}
}
