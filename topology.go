package metascritic

import (
	"math"
	"math/rand"
	"sort"

	"metascritic/internal/asgraph"
)

// This file implements the two §5 frameworks for consuming metAScritic's
// inferences:
//
//   - ProgressiveTopology adds links from the highest confidence rating
//     downward, letting applications pick an operating point on the
//     precision/recall curve ("bounding analysis by sweeping through
//     thresholds", §5.1).
//   - ProbabilisticTopology assigns every candidate link a probability of
//     existing derived from a calibration of ratings against held-out
//     measurements, enabling estimation of network properties as random
//     variables ("enabling probabilistic reasoning", §5.1).

// ScoredLink is one candidate link with its confidence rating.
type ScoredLink struct {
	Pair   asgraph.Pair
	Rating float64
	// Measured reports whether the link was directly observed (rating
	// from E_m) rather than inferred by completion.
	Measured bool
}

// ProgressiveTopology orders a result's links by decreasing confidence.
type ProgressiveTopology struct {
	links []ScoredLink
}

// NewProgressiveTopology extracts all positive-rated links of a result,
// sorted by decreasing rating (measured links first at rating 1).
func NewProgressiveTopology(res *Result) *ProgressiveTopology {
	n := len(res.Members)
	var links []ScoredLink
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			pr := asgraph.MakePair(res.Members[i], res.Members[j])
			if v, ok := res.Estimate.Value(res.Members[i], res.Members[j]); ok {
				if v > 0 {
					links = append(links, ScoredLink{Pair: pr, Rating: 1, Measured: true})
				}
				continue
			}
			if r := res.Ratings.At(i, j); r > 0 {
				links = append(links, ScoredLink{Pair: pr, Rating: r})
			}
		}
	}
	sort.SliceStable(links, func(a, b int) bool {
		if links[a].Rating != links[b].Rating {
			return links[a].Rating > links[b].Rating
		}
		if links[a].Pair.A != links[b].Pair.A {
			return links[a].Pair.A < links[b].Pair.A
		}
		return links[a].Pair.B < links[b].Pair.B
	})
	return &ProgressiveTopology{links: links}
}

// Len returns the total number of candidate links.
func (p *ProgressiveTopology) Len() int { return len(p.links) }

// AtConfidence returns every link with rating >= thr, most confident
// first. The returned slice aliases internal storage; do not modify.
func (p *ProgressiveTopology) AtConfidence(thr float64) []ScoredLink {
	k := sort.Search(len(p.links), func(i int) bool { return p.links[i].Rating < thr })
	return p.links[:k]
}

// Sweep calls fn at each distinct confidence level from high to low with
// the cumulative link set at that level; fn returning false stops the
// sweep. This is the "reassess findings while sweeping thresholds"
// pattern of §5.1.
func (p *ProgressiveTopology) Sweep(fn func(thr float64, links []ScoredLink) bool) {
	i := 0
	for i < len(p.links) {
		thr := p.links[i].Rating
		j := i
		for j < len(p.links) && p.links[j].Rating == thr {
			j++
		}
		if !fn(thr, p.links[:j]) {
			return
		}
		i = j
	}
}

// CalibrationPoint maps a rating threshold to the empirical precision of
// links at or above it.
type CalibrationPoint struct {
	Threshold float64
	Precision float64
}

// ProbabilisticTopology assigns each candidate link a probability of
// existing, derived from a precision calibration curve.
type ProbabilisticTopology struct {
	links []ScoredLink
	curve []CalibrationPoint // sorted by increasing threshold
}

// NewProbabilisticTopology builds the probabilistic view. The calibration
// curve is estimated from an internal holdout: measured entries are hidden,
// the completion re-run, and the precision of inferred links computed per
// threshold bucket — the "assign each link a probability of existing based
// on its precision at a given threshold" strategy of §5.1.
func (p *Pipeline) NewProbabilisticTopology(res *Result, seed int64) *ProbabilisticTopology {
	prog := NewProgressiveTopology(res)
	curve := p.calibrationCurve(res, seed)
	return &ProbabilisticTopology{links: prog.links, curve: curve}
}

// calibrationCurve estimates precision-at-threshold from a 20% holdout of
// measured entries.
func (p *Pipeline) calibrationCurve(res *Result, seed int64) []CalibrationPoint {
	est := res.Estimate
	_, holdout := stratifiedHoldout(est.Mask, rand.New(rand.NewSource(seed)))
	features := BuildFeatures(p.World.G, res.Members)
	_, fa := Refit(est.E, est.Mask, features, holdout, res.Rank, res.Lambda, res.FeatureWeight)
	scores := make([]float64, len(holdout))
	links := make([]bool, len(holdout))
	for k, h := range holdout {
		scores[k] = fa.Rating(h[0], h[1])
		links[k] = est.E.At(h[0], h[1]) > 0
	}

	var curve []CalibrationPoint
	for thr := 0.0; thr <= 0.91; thr += 0.1 {
		tp, fp := 0, 0
		for k, score := range scores {
			if score < thr {
				continue
			}
			if links[k] {
				tp++
			} else {
				fp++
			}
		}
		prec := 0.0
		if tp+fp > 0 {
			prec = float64(tp) / float64(tp+fp)
		}
		curve = append(curve, CalibrationPoint{Threshold: thr, Precision: prec})
	}
	// Enforce monotonicity (isotonic-style): precision-at-threshold should
	// not decrease as the threshold rises; smooth out holdout noise.
	for k := 1; k < len(curve); k++ {
		if curve[k].Precision < curve[k-1].Precision {
			curve[k].Precision = curve[k-1].Precision
		}
	}
	return curve
}

// Curve returns the calibration curve (threshold → precision).
func (t *ProbabilisticTopology) Curve() []CalibrationPoint {
	return append([]CalibrationPoint(nil), t.curve...)
}

// Probability returns the estimated probability that a link with the given
// rating exists: the calibrated precision at the highest threshold the
// rating clears (measured links get 1).
func (t *ProbabilisticTopology) Probability(l ScoredLink) float64 {
	if l.Measured {
		return 1
	}
	if l.Rating <= 0 {
		return 0
	}
	p := 0.0
	for _, c := range t.curve {
		if l.Rating >= c.Threshold {
			p = c.Precision
		}
	}
	return p
}

// Links returns every candidate link with its probability, most probable
// first.
func (t *ProbabilisticTopology) Links() []ScoredLink {
	return append([]ScoredLink(nil), t.links...)
}

// Sample draws a concrete topology: each candidate link is included
// independently with its probability. Measured links are always included.
func (t *ProbabilisticTopology) Sample(rng *rand.Rand) []asgraph.Pair {
	var out []asgraph.Pair
	for _, l := range t.links {
		if rng.Float64() < t.Probability(l) {
			out = append(out, l.Pair)
		}
	}
	return out
}

// ExpectedLinks returns the expected number of existing links (the sum of
// per-link probabilities) — a random-variable estimate of metro
// connectivity size.
func (t *ProbabilisticTopology) ExpectedLinks() float64 {
	var s float64
	for _, l := range t.links {
		s += t.Probability(l)
	}
	return s
}

// EstimateProperty Monte-Carlo-estimates the mean and standard deviation
// of any topology property f over sampled topologies (§5.1's "estimation
// of Internet properties as random variables").
func (t *ProbabilisticTopology) EstimateProperty(samples int, seed int64, f func(links []asgraph.Pair) float64) (mean, std float64) {
	if samples < 1 {
		samples = 1
	}
	rng := rand.New(rand.NewSource(seed))
	vals := make([]float64, samples)
	for k := range vals {
		vals[k] = f(t.Sample(rng))
	}
	var sum float64
	for _, v := range vals {
		sum += v
	}
	mean = sum / float64(samples)
	var varSum float64
	for _, v := range vals {
		d := v - mean
		varSum += d * d
	}
	if samples > 1 {
		std = math.Sqrt(varSum / float64(samples-1))
	}
	return mean, std
}
