package als

import (
	"math/rand"
	"sync"

	"metascritic/internal/mat"
	"metascritic/internal/par"
)

// Problem is the reusable form of one hybrid completion problem: the
// weighted per-row observation structure over the augmented matrix
// [E | features], built once per (E, mask, features) and shared across
// holdout draws, tune grid points, and rank candidates. Rebuilding this
// structure used to dominate short completions — the rank-estimation loop
// alone runs hundreds of them per metro.
//
// Reuse contract: a Problem snapshots the mask (row layout) and feature
// normalization at construction but reads E lazily at solve time through
// stored values — so it is invalidated by ANY mutation of the mask (Set/
// Unset/Reset) or of E's observed entries after construction; rebuild
// with NewProblem after targeted measurements land. Holdout draws must NOT
// mutate the mask: express them as a mat.Overlay and pass it to Fit, which
// applies the removals as per-row deltas.
//
// The link-vs-feature balance is NOT baked in: links weigh 1 and feature
// entries weigh Options.FeatureWeight at solve time, so one Problem serves
// every grid point of the tune search that keeps features enabled. (A
// FeatureWeight of 0 on a featured Problem zeroes the feature influence but
// still factors the augmented dimension; build a featureless Problem for
// bit-compatibility with the features-off path.)
type Problem struct {
	n, f int // AS block size, feature column count
	rows [][]observation
}

// observation is one observed entry of the augmented matrix. Its weight is
// implicit: 1 for link entries, Options.FeatureWeight for feature entries
// (row or column in the feature block).
type observation struct {
	col   int32
	value float64
}

// NewProblem builds the per-row observation structure once. features may be
// nil (or have zero columns) for a links-only problem; pass nil when the
// intended FeatureWeight is 0 to match the features-off completion path
// exactly.
func NewProblem(E mat.View, mask *mat.Mask, features *mat.Matrix) *Problem {
	n := mask.N()
	f := 0
	var feat *mat.Matrix
	if features != nil && features.Cols > 0 {
		feat = normalizeColumns(features)
		f = feat.Cols
	}
	p := &Problem{n: n, f: f, rows: make([][]observation, n+f)}
	// AS rows: link observations (mask rows are sorted, so the per-row
	// lists come out sorted by column with no re-sort), then feature
	// columns n..n+f-1 in order.
	for i := 0; i < n; i++ {
		row := mask.RowView(i)
		obs := make([]observation, 0, len(row)+f)
		for _, j := range row {
			obs = append(obs, observation{col: j, value: E.At(i, int(j))})
		}
		for c := 0; c < f; c++ {
			obs = append(obs, observation{col: int32(n + c), value: feat.At(i, c)})
		}
		p.rows[i] = obs
	}
	// Feature rows: the mirrored feature observations, columns 0..n-1 in
	// order.
	for c := 0; c < f; c++ {
		obs := make([]observation, n)
		for i := 0; i < n; i++ {
			obs[i] = observation{col: int32(i), value: feat.At(i, c)}
		}
		p.rows[n+c] = obs
	}
	return p
}

// Factors holds the ALS factor matrices of a completed run, returned so a
// subsequent solve at the same or a nearby rank can warm-start from them
// (the §3.2 rank sweep feeds rank r's factors into rank r+1).
type Factors struct {
	P, Q *mat.Matrix // (n+f)×k
}

// Rank returns the factorization rank of the stored factors.
func (fa *Factors) Rank() int { return fa.P.Cols }

// warmPadScale is the scale of the seeded noise used to fill factor
// dimensions that a warm start does not cover (vs. 0.1 for cold init):
// large enough to break the symmetry of a zero column, small enough not to
// perturb the converged subspace being carried over.
const warmPadScale = 0.02

// CompleteFactors is Fit followed by Ratings: the completion of the AS
// block as one triangle, and the factors it was read from.
func (p *Problem) CompleteFactors(opts Options, holdout *mat.Overlay, warm *Factors) (*mat.Sym, *Factors) {
	fa := p.Fit(opts, holdout, warm)
	return p.Ratings(fa), fa
}

// Fit solves the problem at the given options, with holdout (optional, may
// be nil) applied as per-row removals, and returns the factor matrices.
// The fit is bit-identical to rebuilding the problem with the holdout
// entries unset from the mask.
// When warm is non-nil and dimensionally compatible, the factors are
// initialized from it — the first min(k, warm.Rank()) columns are copied,
// and any new columns are filled with small noise drawn from a rand.Rand
// seeded with opts.Seed (row-major, P then Q per row — the order is part
// of the determinism contract). A nil warm reproduces the historical cold
// initialization exactly. The returned Factors are freshly allocated each
// call.
//
// Callers that read only a few cells of the completion (a holdout's
// entries) read them through Factors.Rating; callers that score the whole
// AS block read the Ratings triangle.
func (p *Problem) Fit(opts Options, holdout *mat.Overlay, warm *Factors) *Factors {
	n, f := p.n, p.f
	dim := n + f
	k := opts.Rank
	if k < 1 {
		k = 1
	}
	if k > dim {
		k = dim
	}
	iters := opts.Iterations
	if iters < 1 {
		iters = 1
	}
	fw := opts.FeatureWeight

	rng := rand.New(rand.NewSource(opts.Seed))
	P := mat.New(dim, k)
	Q := mat.New(dim, k)
	if warm != nil && warm.P != nil && warm.P.Rows == dim {
		kw := warm.P.Cols
		if kw > k {
			kw = k
		}
		for i := 0; i < dim; i++ {
			pi, qi := P.Row(i), Q.Row(i)
			copy(pi[:kw], warm.P.Row(i)[:kw])
			copy(qi[:kw], warm.Q.Row(i)[:kw])
			for d := kw; d < k; d++ {
				pi[d] = warmPadScale * rng.NormFloat64()
				qi[d] = warmPadScale * rng.NormFloat64()
			}
		}
	} else {
		for i := range P.Data {
			P.Data[i] = 0.1 * rng.NormFloat64()
			Q.Data[i] = 0.1 * rng.NormFloat64()
		}
	}

	for it := 0; it < iters; it++ {
		p.solveSide(holdout, Q, P, opts.Lambda, fw) // fix Q, solve P rows
		p.solveSide(holdout, P, Q, opts.Lambda, fw) // fix P, solve Q rows
	}
	return &Factors{P: P, Q: Q}
}

// solverScratch is one row solve's normal-equation workspace, pooled across
// solves: the rank-estimation loop calls Fit hundreds of times and the
// k×k system matrices are identically shaped within a sweep.
type solverScratch struct {
	buf  []float64 // backing for the k×k system matrix
	atb  []float64
	lfac []float64 // Cholesky factor scratch
	sol  []float64
	obs  []observation // filtered row for holdout-affected rows
}

var scratchPool = sync.Pool{New: func() any { return &solverScratch{} }}

func (s *solverScratch) sized(k int) (ata *mat.Matrix, atb []float64) {
	if cap(s.buf) < k*k {
		s.buf = make([]float64, k*k)
		s.lfac = make([]float64, k*k)
	}
	if cap(s.atb) < k {
		s.atb = make([]float64, k)
		s.sol = make([]float64, k)
	}
	s.lfac = s.lfac[:k*k]
	s.sol = s.sol[:k]
	return &mat.Matrix{Rows: k, Cols: k, Data: s.buf[:k*k]}, s.atb[:k]
}

// solveSide solves, for every row i, the regularized least squares
//
//	(Σ_j w_ij fixed_j fixed_jᵀ + λΣw I) free_i = Σ_j w_ij A_ij fixed_j
//
// writing the result into free. Rows are independent, so they are solved
// through par.For; each row borrows pooled scratch buffers and writes only
// its own output row, keeping the result bit-identical to the sequential
// computation.
func (p *Problem) solveSide(holdout *mat.Overlay, fixed, free *mat.Matrix, lambda, fw float64) {
	k := fixed.Cols
	par.For(len(p.rows), 0, func(_, i int) {
		sc := scratchPool.Get().(*solverScratch)
		ata, atb := sc.sized(k)
		obs := p.rows[i]
		if holdout != nil && i < p.n {
			if rm := holdout.Removed(i); len(rm) > 0 {
				sc.obs = filterObs(sc.obs[:0], obs, rm)
				obs = sc.obs
			}
		}
		p.solveRow(i, obs, fixed, free.Row(i), lambda, fw, ata, atb, sc)
		scratchPool.Put(sc)
	})
}

// filterObs appends to dst the observations of row whose column is not in
// the sorted removal list rm. Both inputs are sorted by column, so this is
// a single merge pass.
func filterObs(dst, row []observation, rm []int32) []observation {
	k := 0
	for _, o := range row {
		for k < len(rm) && rm[k] < o.col {
			k++
		}
		if k < len(rm) && rm[k] == o.col {
			continue
		}
		dst = append(dst, o)
	}
	return dst
}

// solveRow solves one row's normal equations into out, reusing the caller's
// scratch matrices. Link observations weigh 1; observations in the feature
// block (feature rows, or columns >= n) weigh fw.
func (p *Problem) solveRow(i int, obs []observation, fixed *mat.Matrix, out []float64, lambda, fw float64, ata *mat.Matrix, atb []float64, sc *solverScratch) {
	k := fixed.Cols
	if len(obs) == 0 {
		// No information: shrink toward zero.
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
	featRow := i >= p.n
	nCols := int32(p.n)
	var wsum float64
	for _, o := range obs {
		q := fixed.Row(int(o.col))
		w := 1.0
		if featRow || o.col >= nCols {
			w = fw
		}
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
	// Mirror the upper triangle and add the regularizer.
	for a := 0; a < k; a++ {
		for b := a + 1; b < k; b++ {
			ata.Set(b, a, ata.At(a, b))
		}
		ata.Add(a, a, lambda*wsum+1e-9)
	}
	if err := mat.CholeskySolveScratch(ata, atb, sc.lfac, sc.sol); err != nil {
		return // keep previous factors for this row
	}
	copy(out, sc.sol)
}

// Rating returns cell (i, j) of the completion, clipped to [-1, 1]: the
// value the triangle (Ratings) holds at (i, j) and at (j, i), bit for bit.
// i and j index the AS block.
func (fa *Factors) Rating(i, j int) float64 {
	if i > j {
		i, j = j, i
	}
	return rating(fa.P.Row(i), fa.Q.Row(i), fa.P.Row(j), fa.Q.Row(j))
}

// rating is the symmetrized product of rows i <= j of the factors,
// clipped to [-1, 1]. Every completion cell is computed here, so the
// triangle and Factors.Rating agree bit for bit.
func rating(pi, qi, pj, qj []float64) float64 {
	var a, b float64
	for d := range pi {
		a += pi[d] * qj[d]
		b += pj[d] * qi[d]
	}
	return clip((a+b)/2, -1, 1)
}

// Ratings forms the completion of the AS block as one triangle, (i, j)
// and (j, i) sharing one stored cell. Rows are filled through par.For,
// each writing only its own stored cells.
func (p *Problem) Ratings(fa *Factors) *mat.Sym {
	out := mat.NewSym(p.n)
	par.For(p.n, 0, func(_, i int) {
		pi, qi := fa.P.Row(i), fa.Q.Row(i)
		row := out.Row(i)
		for c := range row {
			j := i + c
			row[c] = rating(pi, qi, fa.P.Row(j), fa.Q.Row(j))
		}
	})
	return out
}
