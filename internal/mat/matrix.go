// Package mat provides the dense linear-algebra primitives metAScritic
// needs: matrices, Cholesky solves for the ALS normal equations, a Jacobi
// eigendecomposition for symmetric matrices, singular values, and the
// effective-rank measures used by the rank-estimation loop.
//
// The package is deliberately small and allocation-conscious rather than a
// general BLAS replacement: every routine here is on the hot path of the
// completion pipeline.
package mat

import (
	"errors"
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix of float64.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// New returns a zeroed r×c matrix.
func New(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("mat: negative dimension %dx%d", r, c))
	}
	return &Matrix{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// FromRows builds a matrix from row slices. All rows must share a length.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return New(0, 0)
	}
	c := len(rows[0])
	m := New(len(rows), c)
	for i, row := range rows {
		if len(row) != c {
			panic("mat: ragged rows")
		}
		copy(m.Data[i*c:(i+1)*c], row)
	}
	return m
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Add accumulates v into element (i, j).
func (m *Matrix) Add(i, j int, v float64) { m.Data[i*m.Cols+j] += v }

// Row returns a view (not a copy) of row i.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := New(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// T returns the transpose as a new matrix.
func (m *Matrix) T() *Matrix {
	t := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Data[j*t.Cols+i] = m.Data[i*m.Cols+j]
		}
	}
	return t
}

// Mul returns a*b.
func Mul(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("mat: Mul dimension mismatch %dx%d * %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Row(k)
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out
}

// IsSymmetric reports whether m is square and symmetric within tol.
func (m *Matrix) IsSymmetric(tol float64) bool {
	if m.Rows != m.Cols {
		return false
	}
	for i := 0; i < m.Rows; i++ {
		for j := i + 1; j < m.Cols; j++ {
			if math.Abs(m.At(i, j)-m.At(j, i)) > tol {
				return false
			}
		}
	}
	return true
}

// Symmetrize replaces m with (m + mᵀ)/2. Panics if m is not square.
func (m *Matrix) Symmetrize() {
	if m.Rows != m.Cols {
		panic("mat: Symmetrize on non-square matrix")
	}
	for i := 0; i < m.Rows; i++ {
		for j := i + 1; j < m.Cols; j++ {
			v := (m.At(i, j) + m.At(j, i)) / 2
			m.Set(i, j, v)
			m.Set(j, i, v)
		}
	}
}

// ErrNotPositiveDefinite is returned by CholeskySolve when the system matrix
// is not (numerically) positive definite.
var ErrNotPositiveDefinite = errors.New("mat: matrix not positive definite")

// CholeskySolve solves A x = b for symmetric positive-definite A. It is the
// workhorse of the ALS normal equations (AᵀA + λI) x = Aᵀb where λ > 0
// guarantees positive definiteness.
func CholeskySolve(a *Matrix, b []float64) ([]float64, error) {
	x := make([]float64, a.Rows)
	if err := CholeskySolveScratch(a, b, make([]float64, len(a.Data)), x); err != nil {
		return nil, err
	}
	return x, nil
}

// CholeskySolveScratch is the allocation-free form of CholeskySolve for hot
// loops that solve many identically-sized systems (the per-row ALS solves):
// lfac (len n²) receives the factorization and out (len n) the solution.
// The arithmetic is identical to CholeskySolve, so results are bit-equal.
func CholeskySolveScratch(a *Matrix, b, lfac, out []float64) error {
	n := a.Rows
	if a.Cols != n || len(b) != n || len(lfac) < n*n || len(out) != n {
		panic("mat: CholeskySolveScratch dimension mismatch")
	}
	// Factor A = L Lᵀ.
	l := Matrix{Rows: n, Cols: n, Data: lfac[:n*n]}
	copy(l.Data, a.Data)
	for j := 0; j < n; j++ {
		d := l.At(j, j)
		for k := 0; k < j; k++ {
			v := l.At(j, k)
			d -= v * v
		}
		if d <= 0 {
			return ErrNotPositiveDefinite
		}
		d = math.Sqrt(d)
		l.Set(j, j, d)
		for i := j + 1; i < n; i++ {
			s := l.At(i, j)
			for k := 0; k < j; k++ {
				s -= l.At(i, k) * l.At(j, k)
			}
			l.Set(i, j, s/d)
		}
	}
	// Forward substitution L y = b, writing y into out.
	for i := 0; i < n; i++ {
		s := b[i]
		for k := 0; k < i; k++ {
			s -= l.At(i, k) * out[k]
		}
		out[i] = s / l.At(i, i)
	}
	// Back substitution Lᵀ x = y, in place: x[i] reads y[i] before
	// overwriting it and only x[k] for k > i, which are already final.
	for i := n - 1; i >= 0; i-- {
		s := out[i]
		for k := i + 1; k < n; k++ {
			s -= l.At(k, i) * out[k]
		}
		out[i] = s / l.At(i, i)
	}
	return nil
}

// SymEigen computes the eigenvalues and eigenvectors of a symmetric matrix
// using the cyclic Jacobi method. Eigenvalues are returned sorted in
// decreasing order; column k of the returned matrix is the eigenvector for
// eigenvalue k. The input is not modified.
func SymEigen(a *Matrix) (vals []float64, vecs *Matrix) {
	n := a.Rows
	if a.Cols != n {
		panic("mat: SymEigen on non-square matrix")
	}
	w := a.Clone()
	v := Identity(n)
	const maxSweeps = 100
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := 0.0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += w.At(i, j) * w.At(i, j)
			}
		}
		if off < 1e-22*float64(n*n) {
			break
		}
		for p := 0; p < n; p++ {
			for q := p + 1; q < n; q++ {
				apq := w.At(p, q)
				if math.Abs(apq) < 1e-18 {
					continue
				}
				app := w.At(p, p)
				aqq := w.At(q, q)
				theta := (aqq - app) / (2 * apq)
				var t float64
				if theta >= 0 {
					t = 1 / (theta + math.Sqrt(1+theta*theta))
				} else {
					t = -1 / (-theta + math.Sqrt(1+theta*theta))
				}
				c := 1 / math.Sqrt(1+t*t)
				s := t * c
				// Apply rotation to rows/cols p and q of w.
				for k := 0; k < n; k++ {
					akp := w.At(k, p)
					akq := w.At(k, q)
					w.Set(k, p, c*akp-s*akq)
					w.Set(k, q, s*akp+c*akq)
				}
				for k := 0; k < n; k++ {
					apk := w.At(p, k)
					aqk := w.At(q, k)
					w.Set(p, k, c*apk-s*aqk)
					w.Set(q, k, s*apk+c*aqk)
				}
				// Accumulate eigenvectors.
				for k := 0; k < n; k++ {
					vkp := v.At(k, p)
					vkq := v.At(k, q)
					v.Set(k, p, c*vkp-s*vkq)
					v.Set(k, q, s*vkp+c*vkq)
				}
			}
		}
	}
	vals = make([]float64, n)
	for i := 0; i < n; i++ {
		vals[i] = w.At(i, i)
	}
	// Sort eigenpairs by decreasing eigenvalue.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < n; i++ { // simple selection sort: n is small here
		best := i
		for j := i + 1; j < n; j++ {
			if vals[idx[j]] > vals[idx[best]] {
				best = j
			}
		}
		idx[i], idx[best] = idx[best], idx[i]
	}
	sortedVals := make([]float64, n)
	sortedVecs := New(n, n)
	for k, id := range idx {
		sortedVals[k] = vals[id]
		for r := 0; r < n; r++ {
			sortedVecs.Set(r, k, v.At(r, id))
		}
	}
	return sortedVals, sortedVecs
}

// SingularValues returns the singular values of m in decreasing order,
// computed as the square roots of the eigenvalues of mᵀm (or m mᵀ,
// whichever is smaller).
func SingularValues(m *Matrix) []float64 {
	var g *Matrix
	if m.Rows <= m.Cols {
		g = Mul(m, m.T())
	} else {
		g = Mul(m.T(), m)
	}
	vals, _ := SymEigen(g)
	out := make([]float64, len(vals))
	for i, v := range vals {
		if v < 0 {
			v = 0
		}
		out[i] = math.Sqrt(v)
	}
	return out
}

// EffectiveRank returns the number of singular values of m that exceed
// tol * s_max. This is the "smallest number of dimensions required to
// reconstruct the matrix within a small error margin" sense used by the
// paper (Chua et al. network kriging).
func EffectiveRank(m *Matrix, tol float64) int {
	sv := SingularValues(m)
	if len(sv) == 0 || sv[0] == 0 {
		return 0
	}
	cut := tol * sv[0]
	r := 0
	for _, s := range sv {
		if s > cut {
			r++
		}
	}
	return r
}
