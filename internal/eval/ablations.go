package eval

import (
	"context"
	"fmt"
	"math/rand"

	"metascritic"
	"metascritic/internal/asgraph"
	"metascritic/internal/obs"
	"metascritic/internal/probe"
	"metascritic/internal/stats"
)

// The ablations below probe the design choices DESIGN.md calls out: the
// exploration fraction ε, the feature weight of the hybrid recommender,
// geographic transferability, and the hierarchical cross-metro prior.

// EpsilonAblationRow is one ε setting's outcome.
type EpsilonAblationRow struct {
	Epsilon float64
	FScore  float64
	Entries int
}

// AblationEpsilon sweeps the exploration fraction of the batch selector on
// the Sydney-like metro (§4.2 justifies ε = 0.1 empirically).
func AblationEpsilon(h *Harness) ([]EpsilonAblationRow, *Table) {
	metro, msRes, budget, batch := h.strategyBudget(8)
	tbl := &Table{Title: "Ablation — exploration fraction ε",
		Header: []string{"ε", "F-score", "Entries"}}
	var rows []EpsilonAblationRow
	for _, eps := range []float64{0, 0.1, 0.3, 1.0} {
		run := h.RunStrategy(metro, MetascriticPicker{Eps: eps}, budget, batch, 0, msRes.Rank, h.Seed+201)
		entries := 0
		if len(run.Batches) > 0 {
			entries = run.Batches[len(run.Batches)-1].Entries
		}
		rows = append(rows, EpsilonAblationRow{Epsilon: eps, FScore: run.FScore, Entries: entries})
		tbl.AddRow(fmt.Sprintf("%.1f", eps), F(run.FScore), D(entries))
	}
	return rows, tbl
}

// FeatureWeightRow is one feature-weight setting's outcome.
type FeatureWeightRow struct {
	Weight        float64
	StratAUPRC    float64
	ComplOutAUPRC float64
}

// AblationFeatureWeight sweeps the features-vs-links balance of the hybrid
// recommender (§3.1): features should matter little when entries abound
// (stratified split) and a lot for rows with no entries (completely-out).
func AblationFeatureWeight(h *Harness) ([]FeatureWeightRow, *Table) {
	res := h.Run(h.W.PrimaryMetros()[0])
	est := res.Estimate
	features := metascritic.BuildFeatures(h.W.G, res.Members)
	tbl := &Table{Title: "Ablation — hybrid feature weight",
		Header: []string{"Weight", "Stratified AUPRC", "CompletelyOut AUPRC"}}
	var rows []FeatureWeightRow
	for _, wgt := range []float64{0, 0.2, 0.35, 0.6, 1.0} {
		row := FeatureWeightRow{Weight: wgt}
		for _, kind := range []SplitKind{Stratified, CompletelyOut} {
			rng := rand.New(rand.NewSource(h.Seed + 301))
			holdout := buildHoldout(est.Mask, kind, 0.2, rng)
			completed := metascritic.CompleteWithout(est.E, est.Mask, features, holdout, res.Rank, res.Lambda, wgt)
			auprc := stats.AUPRC(holdoutLabels(completed, est.E, holdout))
			if kind == Stratified {
				row.StratAUPRC = auprc
			} else {
				row.ComplOutAUPRC = auprc
			}
		}
		rows = append(rows, row)
		tbl.AddRow(fmt.Sprintf("%.2f", wgt), F(row.StratAUPRC), F(row.ComplOutAUPRC))
	}
	return rows, tbl
}

// TransferAblationRow compares estimates with and without geographic
// transferability.
type TransferAblationRow struct {
	Metro           string
	EntriesLocal    int
	EntriesTransfer int
	FLocal          float64
	FTransfer       float64
}

// AblationTransferability disables the cross-metro evidence transfer of
// §3.4 and measures how many observed entries (and how much completion
// quality) it contributes.
func AblationTransferability(h *Harness) ([]TransferAblationRow, *Table) {
	tbl := &Table{Title: "Ablation — geographic transferability",
		Header: []string{"Metro", "Entries(local)", "Entries(transfer)", "F(local)", "F(transfer)"}}
	var rows []TransferAblationRow
	for _, res := range h.RunPrimaries() {
		members := res.Members
		features := metascritic.BuildFeatures(h.W.G, members)
		scoreEst := func(est *obs.Estimate) float64 {
			completed := metascritic.CompleteWith(est.E, est.Mask, features, res.Rank, res.Lambda, res.FeatureWeight)
			scores, labels := h.truthLabels(res.Metro, completed)
			_, f := stats.BestF1Threshold(scores, labels)
			return f
		}
		local := h.P.Store.EstimateScoped(res.Metro, members, obs.NegMetascritic, asgraph.SameMetro)
		transfer := h.P.Store.Estimate(res.Metro, members, obs.NegMetascritic)
		row := TransferAblationRow{
			Metro:           h.MetroName(res.Metro),
			EntriesLocal:    local.Mask.Count() / 2,
			EntriesTransfer: transfer.Mask.Count() / 2,
			FLocal:          scoreEst(local),
			FTransfer:       scoreEst(transfer),
		}
		rows = append(rows, row)
		tbl.AddRow(row.Metro, D(row.EntriesLocal), D(row.EntriesTransfer), F(row.FLocal), F(row.FTransfer))
	}
	return rows, tbl
}

// PriorAblationRow compares bootstrap cost with and without cross-metro
// priors.
type PriorAblationRow struct {
	Variant    string
	Bootstrap  int     // bootstrap measurements issued
	InformRate float64 // informative fraction of targeted measurements
	Entries    int
}

// AblationHierarchicalPrior runs a fresh metro with and without priors
// pooled from the other metros (Appx. D.6): priors should cut bootstrap
// cost (the paper reports ~6× fewer initialization measurements) without
// hurting the informative rate.
func AblationHierarchicalPrior(h *Harness) ([]PriorAblationRow, *Table) {
	// Use a secondary metro not among the primaries. Both variants run on
	// a snapshot of the public seed alone, so they differ only in priors.
	target := -1
	for mi, ms := range h.W.Cfg.Metros {
		if !ms.Primary && len(h.W.G.Metros[mi].Members) >= 20 {
			target = mi
			break
		}
	}
	if target == -1 {
		target = h.W.PrimaryMetros()[0]
	}
	// Pool priors from all primary runs.
	var rates [][probe.NumStrategies]float64
	for _, res := range h.RunPrimaries() {
		rates = append(rates, res.StrategyRates)
	}
	pooled := probe.PoolPriors(rates...)

	runVariant := func(name string, priors *[probe.NumStrategies]float64) PriorAblationRow {
		cfg := h.Cfg
		cfg.Seed = h.Seed + 401
		cfg.MaxMeasurements = 2500
		cfg.Priors = priors
		res, err := h.pub.Snapshot().Run(context.Background(), target, cfg)
		if err != nil {
			// Ablation configs derive from the harness defaults; a failure
			// here is a programming error, matching Harness.Run.
			panic(fmt.Sprintf("eval: prior ablation %s: %v", name, err))
		}
		row := PriorAblationRow{Variant: name}
		inform := 0
		for _, c := range res.Calibrations {
			if c.Exploration {
				row.Bootstrap++ // bootstrap probes are tagged exploration
				continue
			}
			if c.Informative {
				inform++
			}
		}
		targeted := len(res.Calibrations) - row.Bootstrap
		if targeted > 0 {
			row.InformRate = float64(inform) / float64(targeted)
		}
		row.Entries = res.Estimate.Mask.Count() / 2
		return row
	}

	rows := []PriorAblationRow{
		runVariant("No pooling", nil),
		runVariant("Hierarchical prior", &pooled),
	}
	tbl := &Table{Title: "Ablation — hierarchical cross-metro prior (Appx. D.6)",
		Header: []string{"Variant", "BootstrapProbes", "InformativeRate", "Entries"}}
	for _, r := range rows {
		tbl.AddRow(r.Variant, D(r.Bootstrap), F(r.InformRate), D(r.Entries))
	}
	return rows, tbl
}
