// Package experiments exposes the paper-reproduction experiment drivers:
// one function per table and figure of the evaluation (§4, §6, appendices).
// Each driver returns structured results plus a renderable text table. See
// DESIGN.md for the experiment index and EXPERIMENTS.md for paper-vs-
// measured numbers.
package experiments

import (
	"metascritic/internal/asgraph"
	"metascritic/internal/eval"
)

// Harness owns a generated world and caches per-metro pipeline runs shared
// across experiments.
type Harness = eval.Harness

// Options configures a harness.
type Options = eval.Options

// Table is a renderable text table.
type Table = eval.Table

// Re-exported result types, one per experiment.
type (
	// Fig1Row is one cloud provider's correlation row.
	Fig1Row = eval.Fig1Row
	// Fig3Result bundles one metro's split evaluations.
	Fig3Result = eval.Fig3Result
	// Fig4Result summarizes P_m calibration.
	Fig4Result = eval.Fig4Result
	// Fig5Row summarizes ratings for one probe-coverage category.
	Fig5Row = eval.Fig5Row
	// Fig6Row is one metro's vantage-point coverage breakdown.
	Fig6Row = eval.Fig6Row
	// Fig7Result summarizes hijack-prediction accuracy.
	Fig7Result = eval.Fig7Result
	// Fig8Result compares classifiers on one metro.
	Fig8Result = eval.Fig8Result
	// Fig9Result summarizes link transferability.
	Fig9Result = eval.Fig9Result
	// Fig9MeasuredResult is the measured transferability study.
	Fig9MeasuredResult = eval.Fig9MeasuredResult
	// Fig10Result bundles the controlled rank-recovery experiment.
	Fig10Result = eval.Fig10Result
	// Fig12Bucket groups rows by fill relative to the rank.
	Fig12Bucket = eval.Fig12Bucket
	// Fig15Point is one threshold-sweep operating point.
	Fig15Point = eval.Fig15Point
	// Fig16Row is one metro's link-novelty breakdown.
	Fig16Row = eval.Fig16Row
	// Table3Row is one metro's flattening metrics.
	Table3Row = eval.Table3Row
	// Table4Row aggregates one metro's full results.
	Table4Row = eval.Table4Row
	// E3Row compares measurement budgets.
	E3Row = eval.E3Row
	// E7Row is one negative-inference policy's outcome.
	E7Row = eval.E7Row
	// StrategyRun is one selection strategy's outcome (Table 2/Fig. 11).
	StrategyRun = eval.StrategyRun
	// BatchStat records per-batch discovery progress.
	BatchStat = eval.BatchStat
	// SplitKind selects a holdout scheme.
	SplitKind = eval.SplitKind
	// SplitEval is one split's evaluation outcome.
	SplitEval = eval.SplitEval
	// ValidationSet is one external validation dataset.
	ValidationSet = eval.ValidationSet
)

// Split kinds.
const (
	Stratified    = eval.Stratified
	RandomSplit   = eval.RandomSplit
	CompletelyOut = eval.CompletelyOut
)

// DefaultOptions returns laptop-scale experiment settings.
func DefaultOptions() Options { return eval.DefaultOptions() }

// NewHarness generates a world and seeds public measurements.
func NewHarness(opt Options) *Harness { return eval.NewHarness(opt) }

// Experiment drivers, one per paper table/figure.
var (
	// Fig1 computes the feature / co-peering correlation matrices.
	Fig1 = eval.Fig1
	// Fig3 evaluates precision-recall under the two splits per metro.
	Fig3 = eval.Fig3
	// Fig4 evaluates the calibration of P_m.
	Fig4 = eval.Fig4
	// Fig5 relates probe coverage to inferred-rating magnitude.
	Fig5 = eval.Fig5
	// Fig6 computes vantage-point coverage per metro.
	Fig6 = eval.Fig6
	// Fig7 runs the hijack-prediction comparison.
	Fig7 = eval.Fig7
	// Fig8 compares metAScritic with Random Forest and NCF.
	Fig8 = eval.Fig8
	// Fig9 validates geographic transferability from ground truth.
	Fig9 = eval.Fig9
	// Fig9Measured replays the E.4 measurement campaign.
	Fig9Measured = eval.Fig9Measured
	// Fig10 reruns the controlled rank-recovery experiment.
	Fig10 = eval.Fig10
	// Fig11 tracks per-batch discovery for every strategy.
	Fig11 = eval.Fig11
	// Fig12 relates row fill to accuracy.
	Fig12 = eval.Fig12
	// Fig13And14 computes Shapley summaries and a force explanation.
	Fig13And14 = eval.Fig13And14
	// Fig15 sweeps the link threshold λ.
	Fig15 = eval.Fig15
	// Fig16 classifies per-metro links as new or already seen.
	Fig16 = eval.Fig16
	// Table2 compares the six measurement-selection strategies.
	Table2 = eval.Table2
	// Table3 computes the flattening metrics.
	Table3 = eval.Table3
	// Table4 reproduces the detailed per-metro evaluation.
	Table4 = eval.Table4
	// Table5 counts links per AS-class pair.
	Table5 = eval.Table5
	// E3 compares measurement budgets to the exhaustive campaign.
	E3 = eval.E3
	// E7 ablates the non-existence inference policies.
	E7 = eval.E7
	// AblationEpsilon sweeps the exploration fraction ε.
	AblationEpsilon = eval.AblationEpsilon
	// AblationFeatureWeight sweeps the hybrid feature weight.
	AblationFeatureWeight = eval.AblationFeatureWeight
	// AblationTransferability disables cross-metro evidence transfer.
	AblationTransferability = eval.AblationTransferability
	// AblationHierarchicalPrior compares pooled vs no-pooling priors.
	AblationHierarchicalPrior = eval.AblationHierarchicalPrior
)

// Ablation result types.
type (
	// EpsilonAblationRow is one ε setting's outcome.
	EpsilonAblationRow = eval.EpsilonAblationRow
	// FeatureWeightRow is one feature-weight setting's outcome.
	FeatureWeightRow = eval.FeatureWeightRow
	// TransferAblationRow compares local vs transferred evidence.
	TransferAblationRow = eval.TransferAblationRow
	// PriorAblationRow compares prior-initialization variants.
	PriorAblationRow = eval.PriorAblationRow
)

// ClassPair is a canonical pair of AS classes (Table 5 key).
type ClassPair = [2]asgraph.Class
