// Package explain provides the interpretability layer of §5.2: per-feature
// Shapley attributions for metAScritic's inferred ratings. Like the paper —
// which approximates Shapley values with the SHAP library — we do not
// enumerate all 2^d coalitions: a ridge-regression surrogate of the
// recommender admits exact linear Shapley values, and a permutation-
// sampling estimator covers arbitrary predictors.
package explain

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"metascritic/internal/asgraph"
	"metascritic/internal/mat"
	"metascritic/internal/obs"
)

// FeatureNames lists the pair features, mirroring Fig. 13.
var FeatureNames = []string{
	"# of Existing Links 1",
	"# of Non-Existing Links 1",
	"# of Existing Links 2",
	"# of Non-Existing Links 2",
	"Eyeballs 1",
	"Eyeballs 2",
	"# in Customer Cone 1",
	"# in Customer Cone 2",
	"Footprint Size 1",
	"Footprint Size 2",
	"# of IP Addresses 1",
	"# of IP Addresses 2",
	"AS Type 1",
	"AS Type 2",
	"Peering Policy 1",
	"Peering Policy 2",
	"Outbound 1",
	"Outbound 2",
	"ASN 1",
	"ASN 2",
	"Overlapping City",
	"Overlapping Country",
	"Overlapping Facility",
	"Overlapping IXP",
}

// NumFeatures is the pair-feature dimension.
var NumFeatures = len(FeatureNames)

// PairFeaturizer extracts the Fig. 13 feature vector for member AS pairs of
// one metro estimate.
type PairFeaturizer struct {
	G   *asgraph.Graph
	Est *obs.Estimate
	// SameFacility reports facility colocation at the metro (optional).
	SameFacility func(a, b int) bool

	posCount, negCount []int
}

// NewPairFeaturizer precomputes the per-AS link counts.
func NewPairFeaturizer(g *asgraph.Graph, est *obs.Estimate, sameFacility func(a, b int) bool) *PairFeaturizer {
	pf := &PairFeaturizer{G: g, Est: est, SameFacility: sameFacility}
	pf.posCount, pf.negCount = est.PairCounts()
	return pf
}

// Features returns the feature vector for member rows i and j.
func (pf *PairFeaturizer) Features(i, j int) []float64 {
	g := pf.G
	a := &g.ASes[pf.Est.Members[i]]
	b := &g.ASes[pf.Est.Members[j]]
	metro := pf.Est.Metro

	// Footprint intersection via bitsets (ScopeOfMetros returns SameMetro
	// exactly when the two indices are equal); the cross-country overlap
	// still needs the pair scan, but skips the diagonal.
	overlapCity := float64(a.Footprint().CommonCount(b.Footprint()))
	overlapCountry := 0.0
	for _, ma := range a.Metros {
		for _, mb := range b.Metros {
			if ma != mb && g.ScopeOfMetros(ma, mb) == asgraph.SameCountry {
				overlapCountry++
			}
		}
	}
	overlapIXP := float64(len(g.SharedIXPs(a.Index, b.Index)))
	overlapFac := 0.0
	if pf.SameFacility != nil && pf.SameFacility(a.Index, b.Index) {
		overlapFac = 1
	}
	_ = metro

	logf := func(v int) float64 { return math.Log1p(float64(v)) }
	return []float64{
		float64(pf.posCount[i]),
		float64(pf.negCount[i]),
		float64(pf.posCount[j]),
		float64(pf.negCount[j]),
		logf(a.Eyeballs),
		logf(b.Eyeballs),
		logf(g.ConeSize(a.Index)),
		logf(g.ConeSize(b.Index)),
		float64(len(a.Metros)),
		float64(len(b.Metros)),
		logf(a.AddrSpace),
		logf(b.AddrSpace),
		float64(a.Class),
		float64(b.Class),
		float64(a.Policy),
		float64(b.Policy),
		float64(a.Traffic),
		float64(b.Traffic),
		float64(a.ASN),
		float64(b.ASN),
		overlapCity,
		overlapCountry,
		overlapFac,
		overlapIXP,
	}
}

// Surrogate is a ridge-regression approximation of the recommender over
// pair features, admitting exact Shapley values.
type Surrogate struct {
	Weights  []float64 // per feature
	Bias     float64
	Means    []float64 // background (mean) feature values
	Baseline float64   // prediction at the background point
}

// FitSurrogate trains the ridge surrogate on (features, rating) samples.
func FitSurrogate(X [][]float64, y []float64, ridge float64) *Surrogate {
	if len(X) == 0 {
		return &Surrogate{Weights: make([]float64, 0)}
	}
	d := len(X[0])
	means := make([]float64, d)
	for _, row := range X {
		for k, v := range row {
			means[k] += v
		}
	}
	for k := range means {
		means[k] /= float64(len(X))
	}
	ymean := 0.0
	for _, v := range y {
		ymean += v
	}
	ymean /= float64(len(y))

	// Normal equations on centered data: (XᵀX + ridge·I) w = Xᵀy.
	xtx := mat.New(d, d)
	xty := make([]float64, d)
	for r, row := range X {
		for aIdx := 0; aIdx < d; aIdx++ {
			va := row[aIdx] - means[aIdx]
			xty[aIdx] += va * (y[r] - ymean)
			xrow := xtx.Row(aIdx)
			for bIdx := aIdx; bIdx < d; bIdx++ {
				xrow[bIdx] += va * (row[bIdx] - means[bIdx])
			}
		}
	}
	for aIdx := 0; aIdx < d; aIdx++ {
		for bIdx := aIdx + 1; bIdx < d; bIdx++ {
			xtx.Set(bIdx, aIdx, xtx.At(aIdx, bIdx))
		}
		xtx.Add(aIdx, aIdx, ridge+1e-9)
	}
	w, err := mat.CholeskySolve(xtx, xty)
	if err != nil {
		w = make([]float64, d)
	}
	s := &Surrogate{Weights: w, Means: means, Baseline: ymean}
	s.Bias = ymean
	for k := range w {
		s.Bias -= w[k] * means[k]
	}
	return s
}

// Predict evaluates the surrogate at x.
func (s *Surrogate) Predict(x []float64) float64 {
	v := s.Bias
	for k, w := range s.Weights {
		v += w * x[k]
	}
	return v
}

// Shapley returns the exact Shapley values of the linear surrogate at x:
// φ_k = w_k (x_k − E[x_k]). They sum to Predict(x) − Baseline.
func (s *Surrogate) Shapley(x []float64) []float64 {
	out := make([]float64, len(s.Weights))
	for k, w := range s.Weights {
		out[k] = w * (x[k] - s.Means[k])
	}
	return out
}

// Attribution pairs a feature with its Shapley value.
type Attribution struct {
	Feature string
	Value   float64 // feature value at the explained point
	Phi     float64 // Shapley contribution
}

// Force builds a force-plot style explanation (Fig. 14): attributions
// sorted by decreasing |φ|.
func Force(names []string, x, phi []float64) []Attribution {
	out := make([]Attribution, len(phi))
	for k := range phi {
		out[k] = Attribution{Feature: names[k], Value: x[k], Phi: phi[k]}
	}
	sort.Slice(out, func(a, b int) bool { return math.Abs(out[a].Phi) > math.Abs(out[b].Phi) })
	return out
}

// Summary is the beeswarm-style global importance (Fig. 13): mean |φ| per
// feature over many explained pairs, sorted descending.
type Summary struct {
	Feature    string
	MeanAbsPhi float64
}

// Summarize aggregates per-pair Shapley values into global importances.
func Summarize(names []string, phis [][]float64) []Summary {
	if len(phis) == 0 {
		return nil
	}
	d := len(phis[0])
	agg := make([]float64, d)
	for _, phi := range phis {
		for k, v := range phi {
			agg[k] += math.Abs(v)
		}
	}
	out := make([]Summary, d)
	for k := range agg {
		out[k] = Summary{Feature: names[k], MeanAbsPhi: agg[k] / float64(len(phis))}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].MeanAbsPhi > out[b].MeanAbsPhi })
	return out
}

// FormatForce renders a force explanation as text.
func FormatForce(base, prediction float64, attrs []Attribution, topK int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "E[f(X)] = %.3f  →  f(x) = %.3f\n", base, prediction)
	for k, a := range attrs {
		if k >= topK {
			fmt.Fprintf(&b, "  … %d more features\n", len(attrs)-topK)
			break
		}
		fmt.Fprintf(&b, "  %+.3f  %s = %.3g\n", a.Phi, a.Feature, a.Value)
	}
	return b.String()
}
