// Package als implements the hybrid matrix-completion recommender of §3.1
// and Appx. D.4: Alternating Least Squares factorization of the estimated
// connectivity matrix E_m, augmented with per-AS feature columns so that AS
// attributes (traffic profile, peering policy, eyeballs, cone size, ...)
// inform the completion alongside observed links. The relative weight of
// feature entries versus link entries is a hyperparameter, as is the
// regularizer (tuned against a holdout, Appx. D.4).
//
// The completion kernel lives in Problem (problem.go): the per-row
// observation structure is built once per (E, mask, features) and reused
// across holdout draws, tune grid points, and rank candidates. Fit solves
// for the factors; the completion is read from them, a few cells through
// Factors.Rating or the whole AS block through Problem.Ratings. HoldoutMSE
// and TuneWith are the holdout-scoring conveniences layered on top.
package als

import (
	"math"
	"math/rand"

	"metascritic/internal/mat"
	"metascritic/internal/par"
)

// Options configures a completion run.
type Options struct {
	// Rank is the factorization rank r.
	Rank int
	// Lambda is the L2 regularization strength (must be > 0).
	Lambda float64
	// FeatureWeight is the weight of feature entries relative to observed
	// link entries (the features-vs-links balance of §3.1).
	FeatureWeight float64
	// Iterations is the number of ALS sweeps.
	Iterations int
	// Seed seeds the factor initialization.
	Seed int64
}

// DefaultOptions returns sensible defaults for a given rank.
func DefaultOptions(rank int) Options {
	return Options{Rank: rank, Lambda: 0.08, FeatureWeight: 0.35, Iterations: 12, Seed: 1}
}

// normalizeColumns rescales each feature column to [-1, 1] (max-abs after
// centering), so features are commensurate with the rating scale.
func normalizeColumns(m *mat.Matrix) *mat.Matrix {
	out := m.Clone()
	for c := 0; c < m.Cols; c++ {
		var mean float64
		for r := 0; r < m.Rows; r++ {
			mean += m.At(r, c)
		}
		mean /= float64(m.Rows)
		var maxAbs float64
		for r := 0; r < m.Rows; r++ {
			v := math.Abs(m.At(r, c) - mean)
			if v > maxAbs {
				maxAbs = v
			}
		}
		if maxAbs == 0 {
			maxAbs = 1
		}
		for r := 0; r < m.Rows; r++ {
			out.Set(r, c, (m.At(r, c)-mean)/maxAbs)
		}
	}
	return out
}

func clip(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// holdoutMSEProblem scores one holdout on an already-built problem,
// reading only the held-out cells of the fit.
func holdoutMSEProblem(p *Problem, E mat.View, ov *mat.Overlay, holdout [][2]int, opts Options) float64 {
	fa := p.Fit(opts, ov, nil)
	var se float64
	cnt := 0
	for _, h := range holdout {
		d := fa.Rating(h[0], h[1]) - E.At(h[0], h[1])
		se += d * d
		cnt++
	}
	if cnt == 0 {
		return 0
	}
	return se / float64(cnt)
}

// HoldoutMSE completes the matrix with the given entries removed and
// returns the mean squared error on the removed entries. It is the scoring
// primitive of the rank-estimation loop (§3.2). The caller's mask is not
// mutated: the removals are applied as an overlay.
func HoldoutMSE(E mat.View, mask *mat.Mask, features *mat.Matrix, holdout [][2]int, opts Options) float64 {
	if opts.FeatureWeight <= 0 {
		features = nil
	}
	ov := mat.NewOverlay(mask)
	for _, h := range holdout {
		ov.Remove(h[0], h[1])
	}
	return holdoutMSEProblem(NewProblem(E, mask, features), E, ov, holdout, opts)
}

// TuneResult is the outcome of a hyperparameter search.
type TuneResult struct {
	Lambda        float64
	FeatureWeight float64
	MSE           float64
}

// TuneWith grid-searches the regularizer and feature weight against a
// random holdout of observed entries (Appx. D.4 / [56]). Two caller-built
// problems back the whole grid: probNoF serves the feature-weight-0 points
// and probF (nil when there are no features) the rest, so callers that
// complete the matrix right after tuning share them with the final
// completion. The grid points are independent completions scored through
// par.For; the winner is then selected by a serial scan in grid order,
// which keeps the result byte-identical to the sequential search (ties
// keep the earliest grid point either way).
func TuneWith(probNoF, probF *Problem, E mat.View, mask *mat.Mask, rank int, rng *rand.Rand) TuneResult {
	// Build a holdout of ~10% of observed entries.
	var entries [][2]int
	mask.Entries(func(i, j int) {
		if i != j {
			entries = append(entries, [2]int{i, j})
		}
	})
	rng.Shuffle(len(entries), func(a, b int) { entries[a], entries[b] = entries[b], entries[a] })
	h := len(entries) / 10
	if h < 1 {
		h = 1
	}
	holdout := entries[:h]
	ov := mat.NewOverlay(mask)
	for _, hh := range holdout {
		ov.Remove(hh[0], hh[1])
	}

	type point struct{ lambda, fw float64 }
	var grid []point
	for _, lambda := range []float64{0.02, 0.08, 0.3} {
		for _, fw := range []float64{0, 0.2, 0.5} {
			grid = append(grid, point{lambda, fw})
		}
	}
	mses := make([]float64, len(grid))
	par.For(len(grid), 0, func(_, gi int) {
		pt := grid[gi]
		p := probNoF
		if pt.fw > 0 && probF != nil {
			p = probF
		}
		opts := Options{Rank: rank, Lambda: pt.lambda, FeatureWeight: pt.fw, Iterations: 8, Seed: 1}
		mses[gi] = holdoutMSEProblem(p, E, ov, holdout, opts)
	})

	best := TuneResult{MSE: math.Inf(1)}
	for gi, pt := range grid {
		if mses[gi] < best.MSE {
			best = TuneResult{Lambda: pt.lambda, FeatureWeight: pt.fw, MSE: mses[gi]}
		}
	}
	return best
}
