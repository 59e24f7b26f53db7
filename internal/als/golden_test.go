package als

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"metascritic/internal/mat"
)

// referenceComplete is the seed (pre-Problem) implementation of the
// completion, kept verbatim as the golden oracle: per-call observation
// rebuild with an explicit weight per entry, sequential dense rating
// reconstruction. Every cell that Fit's factors yield, through
// Factors.Rating or the Ratings triangle, must reproduce it bit-for-bit.
func referenceComplete(E *mat.Matrix, mask *mat.Mask, features *mat.Matrix, opts Options) *mat.Matrix {
	n := E.Rows
	f := 0
	var feat *mat.Matrix
	if features != nil && opts.FeatureWeight > 0 {
		feat = normalizeColumns(features)
		f = feat.Cols
	}
	dim := n + f
	k := opts.Rank
	if k < 1 {
		k = 1
	}
	if k > dim {
		k = dim
	}
	if opts.Iterations < 1 {
		opts.Iterations = 1
	}

	type obs struct {
		col    int
		value  float64
		weight float64
	}
	rows := make([][]obs, dim)
	addObs := func(i, j int, v, w float64) {
		rows[i] = append(rows[i], obs{col: j, value: v, weight: w})
		if i != j {
			rows[j] = append(rows[j], obs{col: i, value: v, weight: w})
		}
	}
	mask.Entries(func(i, j int) {
		addObs(i, j, E.At(i, j), 1)
	})
	for i := 0; i < n; i++ {
		for c := 0; c < f; c++ {
			addObs(i, n+c, feat.At(i, c), opts.FeatureWeight)
		}
	}
	for i := range rows {
		sort.Slice(rows[i], func(a, b int) bool { return rows[i][a].col < rows[i][b].col })
	}

	rng := rand.New(rand.NewSource(opts.Seed))
	P := mat.New(dim, k)
	Q := mat.New(dim, k)
	for i := range P.Data {
		P.Data[i] = 0.1 * rng.NormFloat64()
		Q.Data[i] = 0.1 * rng.NormFloat64()
	}

	solveRowRef := func(ro []obs, fixed *mat.Matrix, out []float64, lambda float64, ata *mat.Matrix, atb []float64) {
		if len(ro) == 0 {
			for d := range out {
				out[d] = 0
			}
			return
		}
		for x := range ata.Data {
			ata.Data[x] = 0
		}
		for d := range atb {
			atb[d] = 0
		}
		var wsum float64
		for _, o := range ro {
			q := fixed.Row(o.col)
			w := o.weight
			wsum += w
			for a := 0; a < k; a++ {
				wqa := w * q[a]
				atb[a] += wqa * o.value
				arow := ata.Row(a)
				for b := a; b < k; b++ {
					arow[b] += wqa * q[b]
				}
			}
		}
		for a := 0; a < k; a++ {
			for b := a + 1; b < k; b++ {
				ata.Set(b, a, ata.At(a, b))
			}
			ata.Add(a, a, lambda*wsum+1e-9)
		}
		sol, err := mat.CholeskySolve(ata, atb)
		if err != nil {
			return
		}
		copy(out, sol)
	}
	solveSideRef := func(fixed, free *mat.Matrix) {
		ata := mat.New(k, k)
		atb := make([]float64, k)
		for i := range rows {
			solveRowRef(rows[i], fixed, free.Row(i), opts.Lambda, ata, atb)
		}
	}
	for it := 0; it < opts.Iterations; it++ {
		solveSideRef(Q, P)
		solveSideRef(P, Q)
	}

	out := mat.New(n, n)
	for i := 0; i < n; i++ {
		pi := P.Row(i)
		qi := Q.Row(i)
		for j := i; j < n; j++ {
			pj := P.Row(j)
			qj := Q.Row(j)
			var a, b float64
			for d := 0; d < k; d++ {
				a += pi[d] * qj[d]
				b += pj[d] * qi[d]
			}
			v := clip((a+b)/2, -1, 1)
			out.Set(i, j, v)
			out.Set(j, i, v)
		}
	}
	return out
}

// requireCells fails unless got holds every cell of want bit for bit.
func requireCells(t *testing.T, got mat.View, want *mat.Matrix) {
	t.Helper()
	for i := 0; i < want.Rows; i++ {
		for j := 0; j < want.Cols; j++ {
			if g, w := got.At(i, j), want.At(i, j); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("cell (%d,%d) differs: got %v want %v", i, j, g, w)
			}
		}
	}
}

// TestGoldenEquivalence pins the completion contract: the CSR mask +
// als.Problem path, read through Fit and Ratings, produces byte-identical
// output to the seed implementation for fixed seeds, across featureless,
// featured, diagonal-bearing, and rank-clamped configurations.
func TestGoldenEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, tc := range []struct {
		name string
		n    int
		fill float64
		feat int
		opts Options
	}{
		{"featureless", 40, 0.4, 0, Options{Rank: 6, Lambda: 0.05, Iterations: 6, Seed: 3}},
		{"featured", 36, 0.3, 5, Options{Rank: 7, Lambda: 0.1, FeatureWeight: 0.4, Iterations: 5, Seed: 9}},
		{"weight-zero-features", 30, 0.5, 4, Options{Rank: 4, Lambda: 0.08, FeatureWeight: 0, Iterations: 4, Seed: 2}},
		{"rank-clamped", 12, 0.6, 2, Options{Rank: 100, Lambda: 0.2, FeatureWeight: 0.3, Iterations: 3, Seed: 7}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			E := lowRankMatrix(tc.n, 4, rng.Int63())
			mask := maskFraction(tc.n, tc.fill, rng)
			mask.Set(3, 3) // exercise a diagonal entry
			var features *mat.Matrix
			if tc.feat > 0 {
				features = mat.New(tc.n, tc.feat)
				for i := range features.Data {
					features.Data[i] = rng.NormFloat64()
				}
			}
			requireCells(t, complete(E, mask, features, tc.opts), referenceComplete(E, mask, features, tc.opts))
		})
	}
}

// TestOverlayHoldoutEquivalence pins the holdout delta path: fitting a
// Problem with an Overlay must be bit-identical to the oracle run on a
// cloned mask with the same entries unset.
func TestOverlayHoldoutEquivalence(t *testing.T) {
	n := 40
	E := lowRankMatrix(n, 4, 17)
	rng := rand.New(rand.NewSource(18))
	mask := maskFraction(n, 0.4, rng)
	features := mat.New(n, 3)
	for i := range features.Data {
		features.Data[i] = rng.NormFloat64()
	}
	var holdout [][2]int
	mask.Entries(func(i, j int) {
		if i != j && rng.Float64() < 0.1 {
			holdout = append(holdout, [2]int{i, j})
		}
	})
	if len(holdout) < 5 {
		t.Fatalf("holdout too small: %d", len(holdout))
	}
	opts := Options{Rank: 6, Lambda: 0.08, FeatureWeight: 0.3, Iterations: 6, Seed: 5}

	work := mask.Clone()
	for _, h := range holdout {
		work.Unset(h[0], h[1])
	}
	want := referenceComplete(E, work, features, opts)

	ov := mat.NewOverlay(mask)
	for _, h := range holdout {
		ov.Remove(h[0], h[1])
	}
	p := NewProblem(E, mask, features)
	requireCells(t, p.Ratings(p.Fit(opts, ov, nil)), want)
	// The overlay must not have leaked into the caller's mask.
	for _, h := range holdout {
		if !mask.Has(h[0], h[1]) {
			t.Fatalf("overlay mutated the base mask at %v", h)
		}
	}
}

// TestWarmStartDeterministic pins the warm-start determinism contract: the
// same problem, options, and warm factors produce identical output, and a
// nil warm start reproduces the cold oracle exactly.
func TestWarmStartDeterministic(t *testing.T) {
	n := 30
	E := lowRankMatrix(n, 3, 23)
	rng := rand.New(rand.NewSource(24))
	mask := maskFraction(n, 0.5, rng)
	p := NewProblem(E, mask, nil)

	optsLo := Options{Rank: 3, Lambda: 0.08, Iterations: 6, Seed: 11}
	_, warm := p.CompleteFactors(optsLo, nil, nil)
	if warm.Rank() != 3 {
		t.Fatalf("warm rank = %d", warm.Rank())
	}

	optsHi := Options{Rank: 5, Lambda: 0.08, Iterations: 6, Seed: 12}
	a, fa := p.CompleteFactors(optsHi, nil, warm)
	b, fb := p.CompleteFactors(optsHi, nil, warm)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			if a.At(i, j) != b.At(i, j) {
				t.Fatalf("warm-started completion not deterministic at (%d,%d)", i, j)
			}
		}
	}
	for i := range fa.P.Data {
		if fa.P.Data[i] != fb.P.Data[i] || fa.Q.Data[i] != fb.Q.Data[i] {
			t.Fatalf("warm-started factors not deterministic at %d", i)
		}
	}

	cold, _ := p.CompleteFactors(optsHi, nil, nil)
	requireCells(t, cold, referenceComplete(E, mask, nil, optsHi))
}
