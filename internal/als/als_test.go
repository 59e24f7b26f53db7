package als

import (
	"math"
	"math/rand"
	"testing"

	"metascritic/internal/mat"
)

// lowRankMatrix builds a symmetric rank-r matrix with entries in [-1,1].
func lowRankMatrix(n, r int, seed int64) *mat.Matrix {
	rng := rand.New(rand.NewSource(seed))
	f := mat.New(n, r)
	for i := range f.Data {
		f.Data[i] = rng.NormFloat64() / math.Sqrt(float64(r))
	}
	m := mat.Mul(f, f.T())
	// Squash into [-1, 1] via tanh to mimic rating scale.
	for i := range m.Data {
		m.Data[i] = math.Tanh(m.Data[i])
	}
	m.Symmetrize()
	return m
}

// maskFraction observes each off-diagonal entry with probability p.
func maskFraction(n int, p float64, rng *rand.Rand) *mat.Mask {
	mk := mat.NewMask(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				mk.Set(i, j)
			}
		}
	}
	return mk
}

func TestCompleteRecoversLowRank(t *testing.T) {
	n, r := 60, 4
	truth := lowRankMatrix(n, r, 1)
	rng := rand.New(rand.NewSource(2))
	mask := maskFraction(n, 0.5, rng)
	got := Complete(truth, mask, nil, Options{Rank: 8, Lambda: 0.02, Iterations: 20, Seed: 3})
	// Error on the UNOBSERVED entries must be small.
	var se float64
	cnt := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if mask.Has(i, j) {
				continue
			}
			d := got.At(i, j) - truth.At(i, j)
			se += d * d
			cnt++
		}
	}
	rmse := math.Sqrt(se / float64(cnt))
	if rmse > 0.15 {
		t.Fatalf("unobserved RMSE = %.3f, want < 0.15", rmse)
	}
}

func TestCompleteOutputSymmetricAndClipped(t *testing.T) {
	n := 40
	truth := lowRankMatrix(n, 3, 4)
	rng := rand.New(rand.NewSource(5))
	mask := maskFraction(n, 0.3, rng)
	got := Complete(truth, mask, nil, DefaultOptions(5))
	if !got.IsSymmetric(1e-9) {
		t.Fatalf("completion not symmetric")
	}
	for _, v := range got.Data {
		if v < -1-1e-12 || v > 1+1e-12 {
			t.Fatalf("rating out of range: %v", v)
		}
	}
}

func TestCompleteDeterministic(t *testing.T) {
	n := 30
	truth := lowRankMatrix(n, 3, 6)
	rng := rand.New(rand.NewSource(7))
	mask := maskFraction(n, 0.4, rng)
	a := Complete(truth, mask, nil, DefaultOptions(4))
	b := Complete(truth, mask, nil, DefaultOptions(4))
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatalf("non-deterministic completion at %d", i)
		}
	}
}

func TestFeaturesHelpColdRows(t *testing.T) {
	// Rows with zero observed entries can only be predicted through
	// features. Build a block world: ASes of type 0 all peer with each
	// other; type 1 do not peer. Feature = the type.
	n := 40
	truth := mat.New(n, n)
	features := mat.New(n, 1)
	typ := func(i int) int { return i % 2 }
	for i := 0; i < n; i++ {
		features.Set(i, 0, float64(typ(i)*2-1))
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			if typ(i) == 0 && typ(j) == 0 {
				truth.Set(i, j, 1)
			} else {
				truth.Set(i, j, -1)
			}
		}
	}
	mask := mat.NewMask(n)
	rng := rand.New(rand.NewSource(8))
	// Observe entries only among rows >= 4 (rows 0..3 are completely out).
	for i := 4; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < 0.6 {
				mask.Set(i, j)
			}
		}
	}
	withF := Complete(truth, mask, features, Options{Rank: 6, Lambda: 0.05, FeatureWeight: 0.8, Iterations: 20, Seed: 9})
	noF := Complete(truth, mask, nil, Options{Rank: 6, Lambda: 0.05, Iterations: 20, Seed: 9})
	// Compare accuracy on the cold rows 0..3.
	errOf := func(m *mat.Matrix) float64 {
		var se float64
		cnt := 0
		for i := 0; i < 4; i++ {
			for j := 4; j < n; j++ {
				d := m.At(i, j) - truth.At(i, j)
				se += d * d
				cnt++
			}
		}
		return se / float64(cnt)
	}
	if errOf(withF) >= errOf(noF) {
		t.Fatalf("features should help cold rows: with=%.3f without=%.3f", errOf(withF), errOf(noF))
	}
}

func TestHoldoutMSE(t *testing.T) {
	n := 30
	truth := lowRankMatrix(n, 3, 10)
	rng := rand.New(rand.NewSource(11))
	mask := maskFraction(n, 0.6, rng)
	var holdout [][2]int
	mask.Entries(func(i, j int) {
		if len(holdout) < 20 && i != j {
			holdout = append(holdout, [2]int{i, j})
		}
	})
	mseGood := HoldoutMSE(truth, mask, nil, holdout, Options{Rank: 5, Lambda: 0.02, Iterations: 15, Seed: 1})
	mseBad := HoldoutMSE(truth, mask, nil, holdout, Options{Rank: 1, Lambda: 5.0, Iterations: 2, Seed: 1})
	if mseGood >= mseBad {
		t.Fatalf("well-configured completion should beat a crippled one: %.4f vs %.4f", mseGood, mseBad)
	}
	if got := HoldoutMSE(truth, mask, nil, nil, DefaultOptions(3)); got != 0 {
		t.Fatalf("empty holdout MSE = %v", got)
	}
	// Holdout entries must be restored in the caller's mask (clone check).
	for _, h := range holdout {
		if !mask.Has(h[0], h[1]) {
			t.Fatalf("HoldoutMSE mutated the caller's mask")
		}
	}
}

func TestTunePicksFiniteConfig(t *testing.T) {
	n := 30
	truth := lowRankMatrix(n, 3, 12)
	rng := rand.New(rand.NewSource(13))
	mask := maskFraction(n, 0.5, rng)
	features := mat.New(n, 2)
	for i := range features.Data {
		features.Data[i] = rng.NormFloat64()
	}
	res := TuneWith(NewProblem(truth, mask, nil), NewProblem(truth, mask, features), truth, mask, 4, rng)
	if math.IsInf(res.MSE, 1) {
		t.Fatalf("tune found nothing")
	}
	if res.Lambda <= 0 {
		t.Fatalf("lambda must be positive, got %v", res.Lambda)
	}
}

func TestCompleteEdgeCases(t *testing.T) {
	// Empty mask: completion collapses to ~0 ratings.
	n := 10
	E := mat.New(n, n)
	got := Complete(E, mat.NewMask(n), nil, DefaultOptions(3))
	for _, v := range got.Data {
		if math.Abs(v) > 0.2 {
			t.Fatalf("no-data completion should be near zero, got %v", v)
		}
	}
	// Rank larger than dimension is clamped, not fatal.
	E2 := lowRankMatrix(6, 2, 14)
	mask := mat.NewMask(6)
	mask.Set(0, 1)
	mask.Set(2, 3)
	_ = Complete(E2, mask, nil, Options{Rank: 100, Lambda: 0.1, Iterations: 3, Seed: 1})
	// Zero iterations is bumped to one.
	_ = Complete(E2, mask, nil, Options{Rank: 2, Lambda: 0.1, Iterations: 0, Seed: 1})
}

func TestNormalizeColumns(t *testing.T) {
	m := mat.FromRows([][]float64{{0, 5}, {10, 5}, {20, 5}})
	out := normalizeColumns(m)
	// First column: centered at 10, maxabs 10 -> -1, 0, 1.
	if out.At(0, 0) != -1 || out.At(1, 0) != 0 || out.At(2, 0) != 1 {
		t.Fatalf("column 0 = %v %v %v", out.At(0, 0), out.At(1, 0), out.At(2, 0))
	}
	// Constant column maps to zeros.
	for r := 0; r < 3; r++ {
		if out.At(r, 1) != 0 {
			t.Fatalf("constant column should normalize to 0")
		}
	}
	// Original untouched.
	if m.At(0, 0) != 0 {
		t.Fatalf("normalizeColumns mutated input")
	}
}
