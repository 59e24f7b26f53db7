// Package stats collects the statistical machinery metAScritic's evaluation
// needs: binary-classifier metrics (precision/recall/F-score, PR and ROC
// curves with their areas), empirical CDFs and quantiles, association
// measures (Pearson correlation, the correlation ratio η used for
// categorical features in Fig. 1), and bootstrap confidence intervals.
package stats

import (
	"math"
	"sort"
)

// Confusion is a binary-classification confusion matrix.
type Confusion struct {
	TP, FP, TN, FN int
}

// Precision returns TP/(TP+FP), or 0 when undefined.
func (c Confusion) Precision() float64 {
	d := c.TP + c.FP
	if d == 0 {
		return 0
	}
	return float64(c.TP) / float64(d)
}

// Recall returns TP/(TP+FN), or 0 when undefined.
func (c Confusion) Recall() float64 {
	d := c.TP + c.FN
	if d == 0 {
		return 0
	}
	return float64(c.TP) / float64(d)
}

// F1 returns the harmonic mean of precision and recall.
func (c Confusion) F1() float64 {
	p, r := c.Precision(), c.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// Confuse builds a confusion matrix from scores, labels and a decision
// threshold: score >= thr predicts positive.
func Confuse(scores []float64, labels []bool, thr float64) Confusion {
	var c Confusion
	for i, s := range scores {
		pred := s >= thr
		switch {
		case pred && labels[i]:
			c.TP++
		case pred && !labels[i]:
			c.FP++
		case !pred && labels[i]:
			c.FN++
		default:
			c.TN++
		}
	}
	return c
}

// CurvePoint is one operating point on a PR or ROC curve.
type CurvePoint struct {
	Threshold float64
	X, Y      float64 // PR: (recall, precision); ROC: (FPR, TPR)
}

// PRCurve computes the precision-recall curve by sweeping the threshold over
// the distinct score values (descending). Points are ordered by increasing
// recall.
func PRCurve(scores []float64, labels []bool) []CurvePoint {
	idx := sortByScoreDesc(scores)
	pos := 0
	for _, l := range labels {
		if l {
			pos++
		}
	}
	var pts []CurvePoint
	tp, fp := 0, 0
	for k := 0; k < len(idx); {
		thr := scores[idx[k]]
		// Consume all samples tied at this score.
		for k < len(idx) && scores[idx[k]] == thr {
			if labels[idx[k]] {
				tp++
			} else {
				fp++
			}
			k++
		}
		prec := 1.0
		if tp+fp > 0 {
			prec = float64(tp) / float64(tp+fp)
		}
		rec := 0.0
		if pos > 0 {
			rec = float64(tp) / float64(pos)
		}
		pts = append(pts, CurvePoint{Threshold: thr, X: rec, Y: prec})
	}
	return pts
}

// AUPRC returns the area under the precision-recall curve (average
// precision, computed by the step-wise interpolation used by scikit-learn's
// average_precision_score).
func AUPRC(scores []float64, labels []bool) float64 {
	pts := PRCurve(scores, labels)
	area := 0.0
	prevRecall := 0.0
	for _, p := range pts {
		area += (p.X - prevRecall) * p.Y
		prevRecall = p.X
	}
	return area
}

// ROCCurve computes the ROC curve points (FPR, TPR) ordered by increasing
// FPR, including the (0,0) and (1,1) endpoints.
func ROCCurve(scores []float64, labels []bool) []CurvePoint {
	idx := sortByScoreDesc(scores)
	pos, neg := 0, 0
	for _, l := range labels {
		if l {
			pos++
		} else {
			neg++
		}
	}
	pts := []CurvePoint{{Threshold: math.Inf(1), X: 0, Y: 0}}
	tp, fp := 0, 0
	for k := 0; k < len(idx); {
		thr := scores[idx[k]]
		for k < len(idx) && scores[idx[k]] == thr {
			if labels[idx[k]] {
				tp++
			} else {
				fp++
			}
			k++
		}
		var fpr, tpr float64
		if neg > 0 {
			fpr = float64(fp) / float64(neg)
		}
		if pos > 0 {
			tpr = float64(tp) / float64(pos)
		}
		pts = append(pts, CurvePoint{Threshold: thr, X: fpr, Y: tpr})
	}
	return pts
}

// AUC returns the area under the ROC curve via trapezoidal integration.
func AUC(scores []float64, labels []bool) float64 {
	pts := ROCCurve(scores, labels)
	area := 0.0
	for i := 1; i < len(pts); i++ {
		area += (pts[i].X - pts[i-1].X) * (pts[i].Y + pts[i-1].Y) / 2
	}
	return area
}

// BestF1Threshold sweeps candidate thresholds and returns the one that
// maximizes F1 along with the achieved score. This is the λ-search of §3.1.
func BestF1Threshold(scores []float64, labels []bool) (thr, f1 float64) {
	if len(scores) == 0 {
		return 0, 0
	}
	uniq := append([]float64(nil), scores...)
	sort.Float64s(uniq)
	uniq = dedupe(uniq)
	bestThr, bestF1 := uniq[0], -1.0
	for _, t := range uniq {
		if f := Confuse(scores, labels, t).F1(); f > bestF1 {
			bestF1, bestThr = f, t
		}
	}
	return bestThr, bestF1
}

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Pearson returns the Pearson correlation coefficient of x and y, or 0 when
// either series is constant.
func Pearson(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("stats: Pearson length mismatch")
	}
	if len(x) == 0 {
		return 0
	}
	mx, my := Mean(x), Mean(y)
	var sxy, sxx, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// CorrelationRatio computes η, the correlation ratio between a categorical
// variable (category index per sample) and a continuous outcome: the square
// root of the between-group variance over the total variance. Used for
// categorical features in the Fig. 1 correlation matrix.
func CorrelationRatio(categories []int, values []float64) float64 {
	if len(categories) != len(values) {
		panic("stats: CorrelationRatio length mismatch")
	}
	if len(values) == 0 {
		return 0
	}
	sum := map[int]float64{}
	cnt := map[int]int{}
	for i, c := range categories {
		sum[c] += values[i]
		cnt[c]++
	}
	total := Mean(values)
	var between, totalVar float64
	for c, s := range sum {
		m := s / float64(cnt[c])
		between += float64(cnt[c]) * (m - total) * (m - total)
	}
	for _, v := range values {
		totalVar += (v - total) * (v - total)
	}
	if totalVar == 0 {
		return 0
	}
	return math.Sqrt(between / totalVar)
}

// ECDF returns the empirical CDF value of the sorted sample at x.
type ECDF []float64

// NewECDF builds an ECDF from an (unsorted) sample.
func NewECDF(sample []float64) ECDF {
	s := append([]float64(nil), sample...)
	sort.Float64s(s)
	return ECDF(s)
}

// At returns P(X <= x) under the empirical distribution.
func (e ECDF) At(x float64) float64 {
	if len(e) == 0 {
		return 0
	}
	// Number of sample points <= x.
	n := sort.SearchFloat64s([]float64(e), math.Nextafter(x, math.Inf(1)))
	return float64(n) / float64(len(e))
}

// BootstrapCI returns the mean and a (1-alpha) percentile bootstrap
// confidence interval for the mean of xs, using nResamples resamples drawn
// from rng. rng must not be nil when nResamples > 0.
func BootstrapCI(xs []float64, nResamples int, alpha float64, rng Rand) (mean, lo, hi float64) {
	mean = Mean(xs)
	if len(xs) == 0 || nResamples <= 0 {
		return mean, mean, mean
	}
	means := make([]float64, nResamples)
	buf := make([]float64, len(xs))
	for r := 0; r < nResamples; r++ {
		for i := range buf {
			buf[i] = xs[rng.Intn(len(xs))]
		}
		means[r] = Mean(buf)
	}
	sort.Float64s(means)
	lo = quantileSorted(means, alpha/2)
	hi = quantileSorted(means, 1-alpha/2)
	return mean, lo, hi
}

// Rand is the subset of *math/rand.Rand that stats needs. Accepting an
// interface keeps the package free of global randomness.
type Rand interface {
	Intn(n int) int
	Float64() float64
}

// Quantile returns the q-quantile (0<=q<=1) of the sample via linear
// interpolation.
func Quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantileSorted(s, q)
}

func quantileSorted(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

func sortByScoreDesc(scores []float64) []int {
	idx := make([]int, len(scores))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return scores[idx[a]] > scores[idx[b]] })
	return idx
}

func dedupe(sorted []float64) []float64 {
	out := sorted[:0]
	for i, v := range sorted {
		if i == 0 || v != sorted[i-1] {
			out = append(out, v)
		}
	}
	return out
}
