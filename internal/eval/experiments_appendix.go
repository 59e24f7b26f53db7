package eval

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"metascritic"
	"metascritic/internal/als"
	"metascritic/internal/asgraph"
	"metascritic/internal/baseline"
	"metascritic/internal/explain"
	"metascritic/internal/mat"
	"metascritic/internal/obs"
	"metascritic/internal/stats"
)

// --- Fig. 9: geographic transferability ---

// Fig9Result summarizes how often links repeat across colocated metros.
type Fig9Result struct {
	Pairs        int
	FracAll      float64 // links present at every shared metro
	FracHalf     float64 // links present at >= half the shared metros
	MeanCoverage float64
}

// Fig9 measures, for consistently-routing AS pairs with a link in the
// largest primary metro, the fraction of their shared metros where the
// link also exists (Appx. E.4; the paper reports 42-65% all-locations and
// 70-90% at half or more).
func Fig9(h *Harness) (Fig9Result, *Table) {
	// Use ground truth link placement: this experiment validates the
	// transferability *assumption*, not the inference.
	var out Fig9Result
	var cov []float64
	for pr, metros := range h.W.LinkMetros {
		rel, _ := h.W.RelOf(pr.A, pr.B)
		if rel != asgraph.P2P {
			continue
		}
		if !h.W.G.ASes[pr.A].ConsistentRouting || !h.W.G.ASes[pr.B].ConsistentRouting {
			continue
		}
		shared := h.W.G.SharedMetros(pr.A, pr.B)
		if len(shared) < 2 {
			continue
		}
		out.Pairs++
		frac := float64(len(metros)) / float64(len(shared))
		cov = append(cov, frac)
		if frac >= 1 {
			out.FracAll++
		}
		if frac >= 0.5 {
			out.FracHalf++
		}
	}
	if out.Pairs > 0 {
		out.FracAll /= float64(out.Pairs)
		out.FracHalf /= float64(out.Pairs)
		out.MeanCoverage = stats.Mean(cov)
	}
	tbl := &Table{Title: "Fig. 9 — link transferability across colocated metros",
		Header: []string{"Pairs", "AllLocations", ">=HalfLocations", "MeanCoverage"}}
	tbl.AddRow(D(out.Pairs), F(out.FracAll), F(out.FracHalf), F(out.MeanCoverage))
	return out, tbl
}

// Fig9MeasuredResult is the measurement-based transferability study: the
// paper's actual E.4 methodology, which probes the other colocated metros
// of pairs with a measured link and classifies each outcome.
type Fig9MeasuredResult struct {
	PairsProbed   int
	Confirmed     int // outcome (1): link observed at the probed metro
	OtherMetro    int // outcomes (2-3): interconnection seen elsewhere
	Uninformative int // outcome (4): no usable data
	TransitSeen   int // outcome (5): path went via a transit
	FracAll       float64
	FracHalf      float64
}

// Fig9Measured replays Appx. E.4 with real measurements: for every
// consistently-routing pair with a measured link at the largest primary
// metro, issue traceroutes toward their other shared metros from the best
// local probes and classify the outcomes.
func Fig9Measured(h *Harness) (Fig9MeasuredResult, *Table) {
	g := h.W.G
	// Largest primary metro (the paper uses Amsterdam).
	primaries := h.W.PrimaryMetros()
	sort.Slice(primaries, func(a, b int) bool {
		return len(g.Metros[primaries[a]].Members) > len(g.Metros[primaries[b]].Members)
	})
	home := primaries[0]
	res := h.Run(home)

	// Probes indexed by metro for "best local probe" selection.
	probesAt := map[int][]int{} // metro -> AS
	for _, p := range h.W.Probes {
		probesAt[p.Metro] = append(probesAt[p.Metro], p.AS)
	}

	var out Fig9MeasuredResult
	type cover struct{ confirmed, measurable int }
	coverage := map[asgraph.Pair]*cover{}

	cons := h.P.Store.ConsistentASes(asgraph.SameMetro)
	n := len(res.Members)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			a, b := res.Members[i], res.Members[j]
			v, ok := res.Estimate.Value(a, b)
			if !ok || v < 1 { // measured at the home metro itself
				continue
			}
			if !cons[a] || !cons[b] {
				continue
			}
			shared := g.SharedMetros(a, b)
			if len(shared) < 2 {
				continue
			}
			cv := &cover{confirmed: 1, measurable: 1} // the home observation
			coverage[asgraph.MakePair(a, b)] = cv
			for _, m := range shared {
				if m == home {
					continue
				}
				// Best local probe: one at the metro, preferring the pair's
				// own ASes.
				cands := probesAt[m]
				if len(cands) == 0 {
					continue // unmeasurable location
				}
				vp := cands[0]
				for _, c := range cands {
					if c == a || c == b {
						vp = c
						break
					}
				}
				out.PairsProbed++
				cv.measurable++
				tr := h.P.Engine.RunTarget(vp, m, b, m)
				findings := h.P.Store.AddTrace(tr)
				classified := false
				for _, f := range findings {
					if f.Pair != asgraph.MakePair(a, b) {
						continue
					}
					classified = true
					switch {
					case f.Direct && f.Metro == m:
						out.Confirmed++
						cv.confirmed++
					case f.Direct:
						out.OtherMetro++
					default:
						out.TransitSeen++
					}
					break
				}
				if !classified {
					out.Uninformative++
				}
			}
		}
	}
	// Coverage fractions over measurable locations (the "balanced" score
	// of Fig. 9).
	all, half, total := 0, 0, 0
	for _, cv := range coverage {
		if cv.measurable < 2 {
			continue
		}
		total++
		frac := float64(cv.confirmed) / float64(cv.measurable)
		if frac >= 1 {
			all++
		}
		if frac >= 0.5 {
			half++
		}
	}
	if total > 0 {
		out.FracAll = float64(all) / float64(total)
		out.FracHalf = float64(half) / float64(total)
	}
	tbl := &Table{Title: "Fig. 9 (measured) — probing colocated metros of linked pairs",
		Header: []string{"Probes", "Confirmed", "OtherMetro", "Transit", "Uninformative", "AllLocFrac", "HalfLocFrac"}}
	tbl.AddRow(D(out.PairsProbed), D(out.Confirmed), D(out.OtherMetro), D(out.TransitSeen), D(out.Uninformative), F(out.FracAll), F(out.FracHalf))
	return out, tbl
}

// --- Fig. 10: controlled rank recovery ---

// Fig10Series is one strategy's RMSE trajectory over measurement rounds.
type Fig10Series struct {
	Name     string
	RMSE     []float64
	BestRank int
}

// Fig10Result bundles the controlled experiment.
type Fig10Result struct {
	TrueRank int
	Series   []Fig10Series
}

// Fig10 reruns the controlled rank-recovery experiment of Appx. E.5: a
// generated matrix with known effective rank, a visibility mask, and an
// oracle that reveals entries with per-entry probabilities. metAScritic's
// iterative estimator should drive its RMSE to a minimum at the true rank,
// while fixed-rank baselines stay flat.
func Fig10(h *Harness, n, trueRank int) (Fig10Result, *Table) {
	rng := rand.New(rand.NewSource(h.Seed + 10))
	truth := synthLowRank(n, trueRank, 0.02, rng)
	prob := mat.New(n, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			p := 0.25 + 0.7*rng.Float64()
			prob.Set(i, j, p)
			prob.Set(j, i, p)
		}
	}
	makeWorld := func(seed int64) (*mat.Matrix, *mat.Mask, *rand.Rand) {
		r := rand.New(rand.NewSource(seed))
		E := mat.New(n, n)
		mask := mat.NewMask(n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if r.Float64() < 0.25 {
					E.Set(i, j, truth.At(i, j))
					E.Set(j, i, truth.At(i, j))
					mask.Set(i, j)
				}
			}
		}
		return E, mask, r
	}

	out := Fig10Result{TrueRank: trueRank}
	rounds := trueRank * 3
	// Every strategy gets the SAME per-round oracle-query budget and is
	// scored by the SAME holdout evaluator, mirroring the equal-batch
	// comparison of Appx. E.5.
	budgetPerRound := 2 * n

	// metAScritic: targeted top-up of deficient rows at the candidate
	// rank r = round, scored at rank r; the recovered rank is the RMSE
	// minimizer (the mechanics of rank.Estimate, replayed here with the
	// unified budget and evaluator).
	{
		E, mask, r := makeWorld(h.Seed + 11)
		s := Fig10Series{Name: "metAScritic"}
		bestRMSE := math.Inf(1)
		bad, locked := 0, false
		for round := 1; round <= rounds; round++ {
			queries := 0
			for i := 0; i < n && queries < budgetPerRound; i++ {
				for mask.RowCount(i) < round+3 && queries < budgetPerRound {
					j := r.Intn(n)
					if j == i || mask.Has(i, j) {
						continue
					}
					queries++
					if r.Float64() < prob.At(i, j) {
						E.Set(i, j, truth.At(i, j))
						E.Set(j, i, truth.At(i, j))
						mask.Set(i, j)
					}
				}
			}
			rmse := holdoutRMSE(E, mask, round, r)
			s.RMSE = append(s.RMSE, rmse)
			// Same stopping semantics as the on-line estimator (§3.2):
			// the recovered rank is locked once several consecutive
			// rounds stop improving materially; the RMSE series continues
			// for the figure.
			if locked {
				continue
			}
			if rmse < bestRMSE*(1-0.05) {
				bestRMSE = rmse
				s.BestRank = round
				bad = 0
			} else {
				bad++
				if bad >= 3 {
					locked = true
				}
			}
		}
		out.Series = append(out.Series, s)
	}

	// Baselines: reveal entries at random (or by highest oracle
	// probability) under the same budget, completing at a fixed post-hoc
	// rank — they have no mechanism to estimate the rank on-line.
	for _, mode := range []string{"Random", "Greedy"} {
		E, mask, r := makeWorld(h.Seed + 12)
		fixed := 2 * trueRank
		s := Fig10Series{Name: mode, BestRank: fixed}
		for round := 1; round <= rounds; round++ {
			queries := 0
			for queries < budgetPerRound && mask.Count() < n*(n-1) {
				var i, j int
				if mode == "Random" {
					i, j = r.Intn(n), r.Intn(n)
				} else {
					// Greedy: bias toward high-probability entries.
					i, j = r.Intn(n), r.Intn(n)
					for t := 0; t < 3; t++ {
						i2, j2 := r.Intn(n), r.Intn(n)
						if prob.At(i2, j2) > prob.At(i, j) {
							i, j = i2, j2
						}
					}
				}
				if i == j || mask.Has(i, j) {
					continue
				}
				queries++
				if r.Float64() < prob.At(i, j) {
					E.Set(i, j, truth.At(i, j))
					E.Set(j, i, truth.At(i, j))
					mask.Set(i, j)
				}
			}
			s.RMSE = append(s.RMSE, holdoutRMSE(E, mask, fixed, r))
		}
		out.Series = append(out.Series, s)
	}

	tbl := &Table{Title: fmt.Sprintf("Fig. 10 — controlled rank recovery (true rank %d)", trueRank),
		Header: []string{"Strategy", "FinalRMSE", "MinRMSE", "RankAtMin/Best"}}
	for _, s := range out.Series {
		minR := math.Inf(1)
		argmin := 0
		for k, v := range s.RMSE {
			if v < minR {
				minR = v
				argmin = k + 1
			}
		}
		final := 0.0
		if len(s.RMSE) > 0 {
			final = s.RMSE[len(s.RMSE)-1]
		}
		_ = argmin
		tbl.AddRow(s.Name, F(final), F(minR), D(s.BestRank))
	}
	return out, tbl
}

func synthLowRank(n, r int, noise float64, rng *rand.Rand) *mat.Matrix {
	f := mat.New(n, r)
	for i := range f.Data {
		f.Data[i] = rng.NormFloat64() / math.Sqrt(float64(r))
	}
	m := mat.Mul(f, f.T())
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := math.Tanh(m.At(i, j)) + noise*rng.NormFloat64()
			if v > 1 {
				v = 1
			}
			if v < -1 {
				v = -1
			}
			m.Set(i, j, v)
			m.Set(j, i, v)
		}
	}
	return m
}

func holdoutRMSE(E *mat.Matrix, mask *mat.Mask, r int, rng *rand.Rand) float64 {
	var entries [][2]int
	mask.Entries(func(i, j int) {
		if i != j {
			entries = append(entries, [2]int{i, j})
		}
	})
	if len(entries) < 10 {
		return 1
	}
	rng.Shuffle(len(entries), func(a, b int) { entries[a], entries[b] = entries[b], entries[a] })
	hold := entries[:len(entries)/10]
	return math.Sqrt(als.HoldoutMSE(E, mask, nil, hold, als.Options{Rank: r, Lambda: 0.05, Iterations: 10, Seed: 1}))
}

// --- Fig. 11: per-batch discovery ---

// Fig11 drives each selection strategy on the Sydney-like metro and
// reports per-batch edge discovery and rows above the rank threshold.
func Fig11(h *Harness) (map[string][]BatchStat, *Table) {
	metro, msRes, budget, batch := h.strategyBudget(6)
	pickers := []baseline.Picker{
		MetascriticPicker{Eps: 0.1},
		baseline.Greedy{},
		baseline.IXPMapped{},
		baseline.Random{},
		baseline.OnlyExploration{},
		baseline.OnlyExploitation{},
	}
	out := map[string][]BatchStat{}
	tbl := &Table{Title: "Fig. 11 — discovery per batch (Sydney)",
		Header: []string{"Strategy", "FinalEntries", "FinalLinks", fmt.Sprintf("RowsAboveRank(%d)", msRes.Rank)}}
	for _, p := range pickers {
		run := h.RunStrategy(metro, p, budget, batch, msRes.Rank, msRes.Rank, h.Seed+111)
		out[p.Name()] = run.Batches
		last := BatchStat{}
		if len(run.Batches) > 0 {
			last = run.Batches[len(run.Batches)-1]
		}
		tbl.AddRow(p.Name(), D(last.Entries), D(last.LinksFound), D(last.RowsAboveK))
	}
	return out, tbl
}

// --- Fig. 12: visible entries vs accuracy ---

// Fig12Bucket groups rows by observed-entry count relative to the rank.
type Fig12Bucket struct {
	Label    string
	Rows     int
	Accuracy float64 // fraction of held-out entries correctly signed
}

// Fig12 relates the number of measured entries in a row to prediction
// accuracy (rows below the estimated rank misclassify far more).
func Fig12(h *Harness) ([]Fig12Bucket, *Table) {
	type acc struct{ good, total int }
	buckets := map[int]*acc{} // bucket by entries/rank ratio quartile
	rowsIn := map[int]map[int]bool{}
	label := func(b int) string {
		switch b {
		case 0:
			return "< rank/2"
		case 1:
			return "rank/2..rank"
		case 2:
			return "rank..2*rank"
		default:
			return ">= 2*rank"
		}
	}
	for _, res := range h.RunPrimaries() {
		ev := h.EvaluateSplit(res, Stratified, 0.2, h.Seed+int64(res.Metro)+12)
		// Rebuild holdout with the same seed to know the rows.
		rng := rand.New(rand.NewSource(h.Seed + int64(res.Metro) + 12))
		holdout := buildHoldout(res.Estimate.Mask, Stratified, 0.2, rng)
		r := res.Rank
		for k, hh := range holdout {
			cnt := res.Estimate.Mask.RowCount(hh[0])
			var b int
			switch {
			case cnt < r/2:
				b = 0
			case cnt < r:
				b = 1
			case cnt < 2*r:
				b = 2
			default:
				b = 3
			}
			if buckets[b] == nil {
				buckets[b] = &acc{}
				rowsIn[b] = map[int]bool{}
			}
			rowsIn[b][res.Metro*100000+hh[0]] = true
			buckets[b].total++
			if (ev.Scores[k] > 0) == ev.Labels[k] {
				buckets[b].good++
			}
		}
	}
	var out []Fig12Bucket
	tbl := &Table{Title: "Fig. 12 — measured entries vs accuracy",
		Header: []string{"Bucket", "Rows", "HeldEntries", "Accuracy"}}
	for b := 0; b < 4; b++ {
		a := buckets[b]
		if a == nil {
			continue
		}
		fb := Fig12Bucket{Label: label(b), Rows: len(rowsIn[b]), Accuracy: float64(a.good) / float64(a.total)}
		out = append(out, fb)
		tbl.AddRow(fb.Label, D(fb.Rows), D(a.total), F(fb.Accuracy))
	}
	return out, tbl
}

// --- Fig. 13 / Fig. 14: Shapley explanations ---

// Fig13 fits the ridge surrogate over pair features and summarizes global
// feature importance; Fig14 explains one high-confidence inferred link.
func Fig13And14(h *Harness) ([]explain.Summary, string, *Table) {
	metro := h.W.G.MetroOfName("Sydney").Index
	res := h.Run(metro)
	pf := explain.NewPairFeaturizer(h.W.G, res.Estimate, func(a, b int) bool {
		return h.W.SameFacility(a, b, metro)
	})
	n := len(res.Members)
	rng := rand.New(rand.NewSource(h.Seed + 13))
	var X [][]float64
	var y []float64
	var pairs [][2]int
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() > 0.4 && n > 60 {
				continue // sample pairs for tractability
			}
			X = append(X, pf.Features(i, j))
			y = append(y, res.Ratings.At(i, j))
			pairs = append(pairs, [2]int{i, j})
		}
	}
	sur := explain.FitSurrogate(X, y, 1.0)
	var phis [][]float64
	for _, x := range X {
		phis = append(phis, sur.Shapley(x))
	}
	summary := explain.Summarize(explain.FeatureNames, phis)

	// Fig. 14: pick the highest-rated unmeasured pair and explain it.
	bestK := -1
	bestV := -2.0
	for k, pr := range pairs {
		if res.Estimate.Mask.Has(pr[0], pr[1]) {
			continue
		}
		if v := res.Ratings.At(pr[0], pr[1]); v > bestV {
			bestV = v
			bestK = k
		}
	}
	force := ""
	if bestK >= 0 {
		attrs := explain.Force(explain.FeatureNames, X[bestK], phis[bestK])
		force = explain.FormatForce(sur.Baseline, sur.Predict(X[bestK]), attrs, 6)
	}

	tbl := &Table{Title: "Fig. 13 — Shapley feature importance (Sydney)",
		Header: []string{"Feature", "Mean|phi|"}}
	for k, s := range summary {
		if k >= 12 {
			break
		}
		tbl.AddRow(s.Feature, fmt.Sprintf("%.4f", s.MeanAbsPhi))
	}
	return summary, force, tbl
}

// --- Appx. E.3: measurement efficiency ---

// E3Row compares measurement budgets.
type E3Row struct {
	Metro            string
	Issued           int
	Exhaustive       int
	TheoreticalBound int // O(n r log n)
	Ratio            float64
}

// E3 compares metAScritic's issued measurements to the exhaustive
// campaign (5 traceroutes per entry) and the theoretical O(n·r·log n)
// bound.
func E3(h *Harness) ([]E3Row, *Table) {
	var rows []E3Row
	tbl := &Table{Title: "Appx. E.3 — measurement efficiency",
		Header: []string{"Metro", "Issued", "Exhaustive", "n·r·log(n)", "Issued/Exhaustive"}}
	for _, res := range h.RunPrimaries() {
		n := len(res.Members)
		ex := 5 * n * (n - 1) / 2
		bound := int(float64(n*res.Rank) * math.Log(float64(n)))
		r := E3Row{
			Metro: h.MetroName(res.Metro), Issued: res.Measurements,
			Exhaustive: ex, TheoreticalBound: bound,
			Ratio: float64(res.Measurements) / float64(ex),
		}
		rows = append(rows, r)
		tbl.AddRow(r.Metro, D(r.Issued), D(r.Exhaustive), D(r.TheoreticalBound), F(r.Ratio))
	}
	return rows, tbl
}

// --- Appx. E.7: non-existence inference ablation ---

// E7Row is one negative-inference policy's outcome.
type E7Row struct {
	Policy        string
	Entries       int     // observed entries in E_m
	WrongNegative float64 // fraction of negative entries that are real links
	Precision     float64 // cloud-dataset precision after completion
	Recall        float64
}

// E7 compares the four non-existence policies of Appx. E.7 on the largest
// primary metro, scoring against the cloud ground-truth rows.
func E7(h *Harness) ([]E7Row, *Table) {
	// Pick the largest primary metro.
	primaries := h.W.PrimaryMetros()
	sort.Slice(primaries, func(a, b int) bool {
		return len(h.W.G.Metros[primaries[a]].Members) > len(h.W.G.Metros[primaries[b]].Members)
	})
	metro := primaries[0]
	res := h.Run(metro) // ensures targeted traces are in the shared store
	members := res.Members
	features := metascritic.BuildFeatures(h.W.G, members)
	truth := h.W.Truths[metro]

	policies := []struct {
		name string
		pol  obs.NegativePolicy
	}{
		{"0-negative", obs.NegNone},
		{"Full negative", obs.NegFull},
		{"Inconsistency-oblivious", obs.NegWellPositioned},
		{"metAScritic", obs.NegMetascritic},
	}
	var rows []E7Row
	tbl := &Table{Title: "Appx. E.7 — non-existence inference policies",
		Header: []string{"Policy", "Entries", "WrongNegFrac", "CloudPrecision", "CloudRecall"}}
	for _, p := range policies {
		est := h.P.Store.Estimate(metro, members, p.pol)
		wrong, negs := 0, 0
		n := len(members)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if !est.Mask.Has(i, j) || est.E.At(i, j) >= 0 {
					continue
				}
				negs++
				if truth.M.Has(i, j) {
					wrong++
				}
			}
		}
		_, fa := metascritic.Refit(est.E, est.Mask, features, nil, res.Rank, res.Lambda, res.FeatureWeight)
		// Cloud rows: hypergiant members.
		var scores []float64
		var labels []bool
		for _, ai := range members {
			if h.W.G.ASes[ai].Class != asgraph.Hypergiant {
				continue
			}
			hi := est.Index[ai]
			for j := 0; j < n; j++ {
				if j == hi {
					continue
				}
				scores = append(scores, fa.Rating(hi, j))
				labels = append(labels, truth.M.Has(hi, j))
			}
		}
		row := E7Row{Policy: p.name, Entries: est.Mask.Count() / 2}
		if negs > 0 {
			row.WrongNegative = float64(wrong) / float64(negs)
		}
		if len(scores) > 0 {
			thr, _ := stats.BestF1Threshold(scores, labels)
			c := stats.Confuse(scores, labels, thr)
			row.Precision, row.Recall = c.Precision(), c.Recall()
		}
		rows = append(rows, row)
		tbl.AddRow(row.Policy, D(row.Entries), F(row.WrongNegative), F(row.Precision), F(row.Recall))
	}
	return rows, tbl
}
