// Package rank implements the iterative effective-rank estimation of §3.2:
// starting from a target rank of 1, each round holds out a few observed
// entries per row, tops rows up with targeted measurements until they hold
// at least the candidate rank's worth of entries, scores the completion by
// MSE on the holdout, and stops once more rank stops helping — returning
// the rank with the lowest MSE, which Appx. E.5 shows recovers the true
// effective rank in controlled settings.
package rank

import (
	"fmt"
	"math"
	"math/rand"

	"metascritic/internal/als"
	"metascritic/internal/mat"
)

// TopUpFunc asks the measurement layer to raise the observed-entry count of
// the rows where need[i] > 0 by up to need[i] entries each (by issuing
// targeted traceroutes, or by querying the oracle in controlled runs). It
// must update the E/mask the estimator was given and return the number of
// entries actually added.
type TopUpFunc func(need []int) int

// minImprove is the relative MSE improvement below which a round counts
// as non-improving.
const minImprove = 0.002

// Config tunes the estimation loop.
type Config struct {
	// MaxRank caps the candidate rank.
	MaxRank int
	// Patience is the number of consecutive non-improving rounds before
	// stopping.
	Patience int
	// HoldoutPerRow is the number of entries removed per row each round
	// (the paper uses 3).
	HoldoutPerRow int
	// Lambda, FeatureWeight and Iterations configure the inner ALS.
	Lambda        float64
	FeatureWeight float64
	Iterations    int
	// HoldoutDraws averages the MSE over several independent holdout
	// draws per round, denoising the stopping decision on small metros.
	HoldoutDraws int
	// Seed drives the holdout draws and the ALS factor initialization.
	Seed int64
	// Stop, when non-nil, is polled between rounds; when it returns true
	// the loop aborts and returns the best rank found so far. The pipeline
	// wires context cancellation through it.
	Stop func() bool
}

// Validate rejects configurations that would make the estimation loop
// silently misbehave (non-positive caps, NaN hyperparameters).
func (c Config) Validate() error {
	if c.MaxRank <= 0 {
		return fmt.Errorf("rank: MaxRank must be positive, got %d (use rank.DefaultConfig())", c.MaxRank)
	}
	if c.Iterations <= 0 {
		return fmt.Errorf("rank: Iterations must be positive, got %d", c.Iterations)
	}
	if c.HoldoutPerRow < 0 {
		return fmt.Errorf("rank: HoldoutPerRow must be non-negative, got %d", c.HoldoutPerRow)
	}
	if math.IsNaN(c.Lambda) || c.Lambda < 0 {
		return fmt.Errorf("rank: Lambda must be a non-negative number, got %v", c.Lambda)
	}
	if math.IsNaN(c.FeatureWeight) || c.FeatureWeight < 0 {
		return fmt.Errorf("rank: FeatureWeight must be a non-negative number, got %v", c.FeatureWeight)
	}
	return nil
}

// DefaultConfig returns the settings used in the paper-scale runs.
func DefaultConfig() Config {
	return Config{
		MaxRank:       80,
		Patience:      5,
		HoldoutPerRow: 3,
		Lambda:        0.08,
		FeatureWeight: 0.35,
		Iterations:    10,
		HoldoutDraws:  3,
		Seed:          1,
	}
}

// Step records one round of the loop.
type Step struct {
	Rank       int
	MSE        float64
	NewEntries int // entries added by targeted measurements this round
	Evaluated  int // holdout entries scored
}

// Result is the outcome of the estimation.
type Result struct {
	Rank    int
	BestMSE float64
	History []Step
}

// Estimate runs the iterative loop over the estimated matrix E/mask (which
// topUp mutates as measurements land). features may be nil.
func Estimate(E *mat.Matrix, mask *mat.Mask, features *mat.Matrix, topUp TopUpFunc, cfg Config) Result {
	if cfg.MaxRank < 1 {
		cfg.MaxRank = 1
	}
	if cfg.Patience < 1 {
		cfg.Patience = 1
	}
	if cfg.HoldoutPerRow < 1 {
		cfg.HoldoutPerRow = 3
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := mask.N()
	// minEval is the minimum number of scored holdout entries for a round
	// to be trusted as a new best: half the first round's evaluated count,
	// at least 20. Rounds below it count as non-improving: once most rows
	// fall below the candidate rank, the surviving holdout population
	// shrinks and skews toward easy rows, making its MSE incomparable with
	// earlier rounds.
	minEval := 0

	// The completion problem (per-row observation structure) is built once
	// and reused across every holdout draw and rank candidate; it is only
	// rebuilt after topUp runs, since landed measurements mutate E/mask.
	// Holdout draws are applied as overlay deltas, never as mask clones.
	featArg := features
	if cfg.FeatureWeight <= 0 {
		featArg = nil
	}
	var prob *als.Problem
	var ov *mat.Overlay
	var warm *als.Factors // factors carried from the previous rank
	var hsc holdoutScratch
	need := make([]int, n)

	res := Result{Rank: 1, BestMSE: math.Inf(1)}
	bad := 0
	for r := 1; r <= cfg.MaxRank; r++ {
		if cfg.Stop != nil && cfg.Stop() {
			break
		}
		// Targeted measurements: bring every deficient row up to r
		// observed entries.
		for i := range need {
			need[i] = 0
		}
		total := 0
		for i := 0; i < n; i++ {
			if d := r - mask.RowCount(i); d > 0 {
				need[i] = d
				total += d
			}
		}
		added := 0
		topUpRan := false
		if total > 0 && topUp != nil {
			added = topUp(need)
			topUpRan = true
		}
		if prob == nil || topUpRan {
			prob = als.NewProblem(E, mask, featArg)
			ov = mat.NewOverlay(mask)
		}

		opts := als.Options{
			Rank:          r,
			Lambda:        cfg.Lambda,
			FeatureWeight: cfg.FeatureWeight,
			Iterations:    cfg.Iterations,
			Seed:          cfg.Seed + int64(r),
		}
		// Rank r starts from rank r-1's factors, the new dimensions padded
		// with small seeded noise, so it converges in fewer sweeps: rank 1
		// runs the full Iterations, later ranks max(3, Iterations/2).
		init := warm
		if init != nil {
			opts.Iterations = max(3, cfg.Iterations/2)
		}
		// Score the completion on holdout entries whose rows retain at
		// least the candidate rank's worth of entries — an entry is set
		// aside when EITHER endpoint row is deficient (§3.2), since a
		// deficient row on one side already under-determines the entry.
		// Averaging over several draws denoises the stopping rule.
		draws := cfg.HoldoutDraws
		if draws < 1 {
			draws = 1
		}
		var se float64
		cnt := 0
		for d := 0; d < draws; d++ {
			holdout := sampleHoldout(mask, cfg.HoldoutPerRow, rng, &hsc)
			ov.Reset()
			for _, h := range holdout {
				ov.Remove(h[0], h[1])
			}
			completed, factors := prob.CompleteFactors(opts, ov, init)
			warm = factors // the last draw's factors seed rank r+1
			for _, h := range holdout {
				if ov.RowCount(h[0]) < r || ov.RowCount(h[1]) < r {
					continue
				}
				diff := completed.At(h[0], h[1]) - E.At(h[0], h[1])
				se += diff * diff
				cnt++
			}
		}
		mse := math.Inf(1)
		if cnt > 0 {
			mse = se / float64(cnt)
		}
		res.History = append(res.History, Step{Rank: r, MSE: mse, NewEntries: added, Evaluated: cnt})

		if r == 1 {
			minEval = max(20, cnt/2)
		}
		if cnt >= minEval && mse < res.BestMSE*(1-minImprove) {
			res.BestMSE = mse
			res.Rank = r
			bad = 0
		} else {
			bad++
			if bad >= cfg.Patience {
				break
			}
		}
	}
	return res
}

// holdoutScratch carries sampleHoldout's working storage across draws: the
// result buffer, a dense taken-marks table (cleared incrementally from the
// previous draw's picks), and the shuffled row-entries buffer.
type holdoutScratch struct {
	out     [][2]int
	taken   []bool // n*n, marks unordered pairs at a*n+b with a <= b
	entries []int
}

// sampleHoldout picks up to k observed off-diagonal entries per row without
// emptying any row. The returned slice is scratch owned by sc, valid until
// the next call.
func sampleHoldout(mask *mat.Mask, k int, rng *rand.Rand, sc *holdoutScratch) [][2]int {
	n := mask.N()
	if sc.taken == nil {
		sc.taken = make([]bool, n*n)
	}
	// Clear only the marks the previous draw set.
	for _, h := range sc.out {
		sc.taken[h[0]*n+h[1]] = false
	}
	out := sc.out[:0]
	for i := 0; i < n; i++ {
		entries := mask.AppendRowEntries(sc.entries[:0], i)
		sc.entries = entries
		if len(entries) <= k {
			continue // keep sparse rows intact
		}
		rng.Shuffle(len(entries), func(a, b int) { entries[a], entries[b] = entries[b], entries[a] })
		picked := 0
		for _, j := range entries {
			if picked >= k {
				break
			}
			if i == j {
				continue
			}
			a, b := i, j
			if a > b {
				a, b = b, a
			}
			if sc.taken[a*n+b] {
				continue
			}
			sc.taken[a*n+b] = true
			out = append(out, [2]int{a, b})
			picked++
		}
	}
	sc.out = out
	return out
}
