package eval

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"metascritic"
	"metascritic/internal/asgraph"
	"metascritic/internal/baseline"
	"metascritic/internal/stats"
)

// --- Fig. 1: feature / co-peering correlations ---

// Fig1Row is one cloud provider's correlation row.
type Fig1Row struct {
	Cloud         string
	PeeringPolicy float64   // correlation ratio
	TrafficProf   float64   // correlation ratio
	Eyeballs      float64   // |Pearson|
	CustomerCone  float64   // |Pearson|
	Country       float64   // correlation ratio
	WithClouds    []float64 // Pearson with peering other clouds
	WithTier1     float64   // Pearson with peering a Tier1
}

// Fig1 computes the correlation matrices between peering with each
// hypergiant and (a) public features, (b) peering with other hypergiants
// and a Tier-1 (the Cogent column).
func Fig1(h *Harness) ([]Fig1Row, *Table) {
	g := h.W.G
	var clouds, tier1s []int
	for _, a := range g.ASes {
		switch a.Class {
		case asgraph.Hypergiant:
			clouds = append(clouds, a.Index)
		case asgraph.Tier1:
			tier1s = append(tier1s, a.Index)
		}
	}
	sort.Ints(clouds)
	sort.Ints(tier1s)
	if len(clouds) > 4 {
		clouds = clouds[:4]
	}
	t1 := tier1s[0]

	// Population: every AS that could peer with a hypergiant (hypergiants
	// are global, so all non-cloud, non-Tier1 ASes).
	var pop []int
	for _, a := range g.ASes {
		if a.Class != asgraph.Hypergiant && a.Class != asgraph.Tier1 {
			pop = append(pop, a.Index)
		}
	}
	peersWith := func(target int) []float64 {
		out := make([]float64, len(pop))
		for k, ai := range pop {
			if g.HasPeer(ai, target) {
				out[k] = 1
			}
		}
		return out
	}
	policy := make([]int, len(pop))
	traffic := make([]int, len(pop))
	country := make([]int, len(pop))
	eyeballs := make([]float64, len(pop))
	cone := make([]float64, len(pop))
	for k, ai := range pop {
		a := g.ASes[ai]
		policy[k] = int(a.Policy)
		traffic[k] = int(a.Traffic)
		country[k] = a.Country
		eyeballs[k] = math.Log1p(float64(a.Eyeballs))
		cone[k] = math.Log1p(float64(g.ConeSize(ai)))
	}
	t1Vec := peersWith(t1)

	var rows []Fig1Row
	tbl := &Table{Title: "Fig. 1 — correlations between cloud peering, features and co-peering",
		Header: []string{"Cloud", "Policy(η)", "Traffic(η)", "Eyeballs(r)", "Cone(r)", "Country(η)", "OtherClouds(r)", "Tier1(r)"}}
	for _, c := range clouds {
		y := peersWith(c)
		row := Fig1Row{
			Cloud:         fmt.Sprintf("Cloud-AS%d", g.ASes[c].ASN),
			PeeringPolicy: stats.CorrelationRatio(policy, y),
			TrafficProf:   stats.CorrelationRatio(traffic, y),
			Eyeballs:      math.Abs(stats.Pearson(eyeballs, y)),
			CustomerCone:  math.Abs(stats.Pearson(cone, y)),
			Country:       stats.CorrelationRatio(country, y),
			WithTier1:     math.Abs(stats.Pearson(t1Vec, y)),
		}
		var avgCloud float64
		cnt := 0
		for _, c2 := range clouds {
			if c2 == c {
				continue
			}
			r := math.Abs(stats.Pearson(peersWith(c2), y))
			row.WithClouds = append(row.WithClouds, r)
			avgCloud += r
			cnt++
		}
		rows = append(rows, row)
		tbl.AddRow(row.Cloud, F(row.PeeringPolicy), F(row.TrafficProf), F(row.Eyeballs),
			F(row.CustomerCone), F(row.Country), F(avgCloud/float64(cnt)), F(row.WithTier1))
	}
	return rows, tbl
}

// --- Fig. 3 / Fig. 8: PR and ROC curves, classifier comparison ---

// Fig3Result bundles one metro's split evaluations.
type Fig3Result struct {
	Metro         string
	Stratified    SplitEval
	CompletelyOut SplitEval
	StratAUC      float64 // ROC AUC of the stratified split (Fig. 8)
}

// Fig3 evaluates the completion under the stratified and completely-out
// splits for every primary metro.
func Fig3(h *Harness) ([]Fig3Result, *Table) {
	tbl := &Table{Title: "Fig. 3 — precision-recall across metros and splits",
		Header: []string{"Metro", "Split", "AUPRC", "Precision", "Recall", "AUC"}}
	var out []Fig3Result
	for _, res := range h.RunPrimaries() {
		fr := Fig3Result{Metro: h.MetroName(res.Metro)}
		evs := h.EvaluateSplits(res, []SplitSpec{
			{Kind: Stratified, Frac: 0.2, Seed: h.Seed + int64(res.Metro)},
			{Kind: CompletelyOut, Frac: 0.2, Seed: h.Seed + int64(res.Metro)},
		})
		fr.Stratified, fr.CompletelyOut = evs[0], evs[1]
		fr.StratAUC = stats.AUC(fr.Stratified.Scores, fr.Stratified.Labels)
		out = append(out, fr)
		tbl.AddRow(fr.Metro, "Stratified", F(fr.Stratified.AUPRC), F(fr.Stratified.Precision), F(fr.Stratified.Recall), F(fr.StratAUC))
		tbl.AddRow(fr.Metro, "CompletelyOut", F(fr.CompletelyOut.AUPRC), F(fr.CompletelyOut.Precision), F(fr.CompletelyOut.Recall), "")
	}
	return out, tbl
}

// Fig8Result compares classifiers on a stratified split of one metro.
type Fig8Result struct {
	Metro                         string
	MetascriticAUC, RFAUC, NCFAUC float64
}

// Fig8 compares metAScritic's completion with the Random Forest and NCF
// baselines (Appx. E.2) on a stratified split of each primary metro.
func Fig8(h *Harness) ([]Fig8Result, *Table) {
	tbl := &Table{Title: "Fig. 8 — ROC AUC: metAScritic vs Random Forest vs NCF",
		Header: []string{"Metro", "metAScritic", "RandomForest", "NCF"}}
	var out []Fig8Result
	for _, res := range h.RunPrimaries() {
		rng := rand.New(rand.NewSource(h.Seed + 31*int64(res.Metro)))
		est := res.Estimate
		holdout := buildHoldout(est.Mask, Stratified, 0.2, rng)
		work := est.Mask.Clone()
		for _, hh := range holdout {
			work.Unset(hh[0], hh[1])
		}
		features := metascritic.BuildFeatures(h.W.G, res.Members)

		// metAScritic.
		completed := metascritic.CompleteWith(est.E, work, features, res.Rank, res.Lambda, res.FeatureWeight)

		// Random forest on *public* pair features only (the paper's RF
		// baseline "only builds on available public features", Appx.
		// E.2 — no link-derived inputs).
		pf := publicPairFeatures(h, res)
		var X [][]float64
		var y []bool
		work.Entries(func(i, j int) {
			if i != j {
				X = append(X, pf(i, j))
				y = append(y, est.E.At(i, j) > 0)
			}
		})
		forest := baseline.TrainForest(X, y, baseline.DefaultForestConfig())

		// NCF.
		ncfCfg := baseline.DefaultNCFConfig()
		ncfCfg.Epochs = 30
		ncf := baseline.TrainNCF(est.E, work, features, ncfCfg)

		var msScores, rfScores, ncfScores []float64
		var labels []bool
		for _, hh := range holdout {
			i, j := hh[0], hh[1]
			msScores = append(msScores, completed.At(i, j))
			rfScores = append(rfScores, forest.PredictProba(pf(i, j)))
			ncfScores = append(ncfScores, ncf.Predict(i, j))
			labels = append(labels, est.E.At(i, j) > 0)
		}
		fr := Fig8Result{
			Metro:          h.MetroName(res.Metro),
			MetascriticAUC: stats.AUC(msScores, labels),
			RFAUC:          stats.AUC(rfScores, labels),
			NCFAUC:         stats.AUC(ncfScores, labels),
		}
		out = append(out, fr)
		tbl.AddRow(fr.Metro, F(fr.MetascriticAUC), F(fr.RFAUC), F(fr.NCFAUC))
	}
	return out, tbl
}

// publicPairFeatures returns a pair-feature extractor over member rows
// using only publicly-available AS attributes (no measurement-derived
// signals): the input space of the paper's Random Forest baseline.
func publicPairFeatures(h *Harness, res *metascritic.Result) func(i, j int) []float64 {
	g := h.W.G
	return func(i, j int) []float64 {
		a, b := g.ASes[res.Members[i]], g.ASes[res.Members[j]]
		return []float64{
			math.Log1p(float64(a.Eyeballs)), math.Log1p(float64(b.Eyeballs)),
			math.Log1p(float64(g.ConeSize(a.Index))), math.Log1p(float64(g.ConeSize(b.Index))),
			float64(len(a.Metros)), float64(len(b.Metros)),
			float64(a.Class), float64(b.Class),
			float64(a.Policy), float64(b.Policy),
			float64(a.Traffic), float64(b.Traffic),
			float64(len(g.SharedIXPs(a.Index, b.Index))),
			float64(len(g.SharedMetros(a.Index, b.Index))),
		}
	}
}

// --- Table 2: selection-strategy comparison ---

// Table2 compares the six selection strategies on a Sydney-like metro
// under metAScritic's measurement budget.
func Table2(h *Harness) ([]*StrategyRun, *Table) {
	metro, msRes, budget, batch := h.strategyBudget(8)
	pickers := []baseline.Picker{
		baseline.Greedy{},
		baseline.IXPMapped{},
		baseline.Random{},
		baseline.OnlyExploration{},
		baseline.OnlyExploitation{},
		MetascriticPicker{Eps: 0.1},
	}
	tbl := &Table{Title: "Table 2 — targeted measurement strategies (Sydney)",
		Header: []string{"Strategy", "Precision", "Recall", "Estimated Rank"}}
	var runs []*StrategyRun
	for _, p := range pickers {
		// Every strategy gets the post-hoc rank tuning the paper grants
		// the baselines, so P/R compares selection quality alone.
		r := h.RunStrategy(metro, p, budget, batch, 0, msRes.Rank, h.Seed+99)
		if _, isMS := p.(MetascriticPicker); isMS {
			// metAScritic's rank column reports its own on-line estimate.
			r.Rank = msRes.Rank
		}
		runs = append(runs, r)
		tbl.AddRow(r.Name, F(r.Precision), F(r.Recall), D(r.Rank))
	}
	return runs, tbl
}

// --- Fig. 4: probability calibration ---

// Fig4Result summarizes the calibration of P_m.
type Fig4Result struct {
	// KS distances between the realized outcome CDFs and the prediction-
	// implied CDF ("perfect prediction line").
	KSInformative float64
	NumTargeted   int
	InformRate    float64
}

// Fig4 evaluates whether the estimated probabilities in P_m predict which
// traceroutes turn out informative, across all primary-metro runs.
func Fig4(h *Harness) (Fig4Result, *Table) {
	var ps []float64
	var inform []bool
	for _, res := range h.RunPrimaries() {
		for _, c := range res.Calibrations {
			if c.Exploration {
				continue // exploration ignores P by design
			}
			ps = append(ps, c.P)
			inform = append(inform, c.Informative)
		}
	}
	out := Fig4Result{NumTargeted: len(ps)}
	if len(ps) == 0 {
		return out, &Table{Title: "Fig. 4 — no targeted measurements"}
	}
	// Perfect prediction: a measurement with predicted p is informative
	// with probability p, so among informative measurements the CDF over
	// p equals the p-weighted CDF of all predictions.
	var wcdfX []float64
	var wcdfW []float64
	informP := []float64{}
	good := 0
	for k, p := range ps {
		wcdfX = append(wcdfX, p)
		wcdfW = append(wcdfW, p)
		if inform[k] {
			informP = append(informP, p)
			good++
		}
	}
	out.InformRate = float64(good) / float64(len(ps))
	out.KSInformative = weightedKS(informP, wcdfX, wcdfW)
	tbl := &Table{Title: "Fig. 4 — calibration of P_m", Header: []string{"Targeted", "InformativeRate", "KS(informative vs perfect)"}}
	tbl.AddRow(D(out.NumTargeted), F(out.InformRate), F(out.KSInformative))
	return out, tbl
}

// weightedKS computes the KS distance between the empirical CDF of sample
// and the weighted CDF defined by (points, weights).
func weightedKS(sample, points []float64, weights []float64) float64 {
	if len(sample) == 0 || len(points) == 0 {
		return 1
	}
	type pw struct{ x, w float64 }
	ws := make([]pw, len(points))
	var total float64
	for i := range points {
		ws[i] = pw{points[i], weights[i]}
		total += weights[i]
	}
	sort.Slice(ws, func(a, b int) bool { return ws[a].x < ws[b].x })
	emp := stats.NewECDF(sample)
	var d, acc float64
	for _, p := range ws {
		acc += p.w
		if diff := math.Abs(emp.At(p.x) - acc/total); diff > d {
			d = diff
		}
	}
	return d
}

// --- Fig. 5: ratings vs probe coverage ---

// Fig5Row summarizes inferred-rating magnitude for one coverage category.
type Fig5Row struct {
	Category string
	Count    int
	MeanAbs  float64
	P90Abs   float64
	HighConf float64 // fraction with |rating| >= 0.8
}

// Fig5 relates probe coverage of an AS pair to the magnitude of its
// inferred rating (unmeasured pairs only).
func Fig5(h *Harness) ([]Fig5Row, *Table) {
	agg := map[string][]float64{}
	order := []string{"VP in AS", "VP in cone", "No VP"}
	for _, res := range h.RunPrimaries() {
		n := len(res.Members)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if res.Estimate.Mask.Has(i, j) {
					continue // measured, not inferred
				}
				a, b := res.Members[i], res.Members[j]
				var cat string
				switch {
				case h.W.HasProbe(a) || h.W.HasProbe(b):
					cat = order[0]
				case h.W.ProbeInCone(a) || h.W.ProbeInCone(b):
					cat = order[1]
				default:
					cat = order[2]
				}
				agg[cat] = append(agg[cat], math.Abs(res.Ratings.At(i, j)))
			}
		}
	}
	tbl := &Table{Title: "Fig. 5 — inferred-rating magnitude vs probe coverage",
		Header: []string{"Category", "Pairs", "Mean|rating|", "P90|rating|", "Frac>=0.8"}}
	var rows []Fig5Row
	for _, cat := range order {
		vals := agg[cat]
		r := Fig5Row{Category: cat, Count: len(vals)}
		if len(vals) > 0 {
			r.MeanAbs = stats.Mean(vals)
			r.P90Abs = stats.Quantile(vals, 0.9)
			hi := 0
			for _, v := range vals {
				if v >= 0.8 {
					hi++
				}
			}
			r.HighConf = float64(hi) / float64(len(vals))
		}
		rows = append(rows, r)
		tbl.AddRow(r.Category, D(r.Count), F(r.MeanAbs), F(r.P90Abs), F(r.HighConf))
	}
	return rows, tbl
}

// --- Fig. 6: vantage-point coverage per metro ---

// Fig6Row is one metro's VP coverage breakdown.
type Fig6Row struct {
	Metro     string
	InASMetro float64 // probe in the AS at the metro
	InAS      float64 // probe in the AS elsewhere
	InCone    float64 // probe only in the customer cone
	None      float64
}

// Fig6 computes the distribution of best available vantage points per
// metro, ordered by total coverage.
func Fig6(h *Harness) ([]Fig6Row, *Table) {
	probeAt := map[[2]int]bool{}
	for _, p := range h.W.Probes {
		probeAt[[2]int{p.AS, p.Metro}] = true
	}
	var rows []Fig6Row
	for mi, m := range h.W.G.Metros {
		if len(m.Members) == 0 {
			continue
		}
		var r Fig6Row
		r.Metro = m.Name
		for _, ai := range m.Members {
			switch {
			case probeAt[[2]int{ai, mi}]:
				r.InASMetro++
			case h.W.HasProbe(ai):
				r.InAS++
			case h.W.ProbeInCone(ai):
				r.InCone++
			default:
				r.None++
			}
		}
		total := float64(len(m.Members))
		r.InASMetro /= total
		r.InAS /= total
		r.InCone /= total
		r.None /= total
		rows = append(rows, r)
	}
	sort.Slice(rows, func(a, b int) bool { return rows[a].None < rows[b].None })
	tbl := &Table{Title: "Fig. 6 — best available vantage point per metro",
		Header: []string{"Metro", "VP in AS@metro", "VP in AS", "VP in cone", "No VP"}}
	for _, r := range rows {
		tbl.AddRow(r.Metro, F(r.InASMetro), F(r.InAS), F(r.InCone), F(r.None))
	}
	return rows, tbl
}
