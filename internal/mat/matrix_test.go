package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// spd returns the symmetric positive-definite matrix BᵀB + I.
func spd(b *Matrix) *Matrix {
	a := Mul(b.T(), b)
	for i := 0; i < a.Rows; i++ {
		a.Add(i, i, 1)
	}
	return a
}

// mulVec returns a*x through Mul on a one-column matrix.
func mulVec(a *Matrix, x []float64) []float64 {
	col := New(len(x), 1)
	copy(col.Data, x)
	return Mul(a, col).Data
}

func TestNewAndAccessors(t *testing.T) {
	m := New(2, 3)
	if m.Rows != 2 || m.Cols != 3 || len(m.Data) != 6 {
		t.Fatalf("New(2,3) = %dx%d len %d", m.Rows, m.Cols, len(m.Data))
	}
	m.Set(1, 2, 5)
	if m.At(1, 2) != 5 {
		t.Fatalf("At(1,2) = %v, want 5", m.At(1, 2))
	}
	m.Add(1, 2, 2.5)
	if m.At(1, 2) != 7.5 {
		t.Fatalf("Add: got %v, want 7.5", m.At(1, 2))
	}
}

func TestFromRows(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	if m.At(0, 1) != 2 || m.At(1, 0) != 3 {
		t.Fatalf("FromRows mismatch: %+v", m.Data)
	}
	empty := FromRows(nil)
	if empty.Rows != 0 || empty.Cols != 0 {
		t.Fatalf("FromRows(nil) should be 0x0")
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic on ragged rows")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestIdentityAndMul(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	i := Identity(2)
	ai := Mul(a, i)
	for k := range a.Data {
		if a.Data[k] != ai.Data[k] {
			t.Fatalf("A*I != A at %d", k)
		}
	}
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	ab := Mul(a, b)
	want := FromRows([][]float64{{19, 22}, {43, 50}})
	for k := range want.Data {
		if !almostEq(ab.Data[k], want.Data[k], 1e-12) {
			t.Fatalf("Mul: got %v want %v", ab.Data, want.Data)
		}
	}
}

func TestMulDimensionPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic on dimension mismatch")
		}
	}()
	Mul(New(2, 3), New(2, 3))
}

func TestTranspose(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	at := a.T()
	if at.Rows != 3 || at.Cols != 2 {
		t.Fatalf("T dims %dx%d", at.Rows, at.Cols)
	}
	if at.At(2, 1) != 6 || at.At(0, 1) != 4 {
		t.Fatalf("T values wrong: %+v", at.Data)
	}
}

func TestSymmetry(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {2.0000001, 1}})
	if !a.IsSymmetric(1e-3) {
		t.Fatalf("should be symmetric within 1e-3")
	}
	if a.IsSymmetric(1e-9) {
		t.Fatalf("should not be symmetric within 1e-9")
	}
	a.Symmetrize()
	if !a.IsSymmetric(0) {
		t.Fatalf("Symmetrize failed")
	}
	rect := New(2, 3)
	if rect.IsSymmetric(1) {
		t.Fatalf("non-square cannot be symmetric")
	}
}

func TestCholeskySolve(t *testing.T) {
	// SPD matrix A = Bᵀ B + I.
	b := FromRows([][]float64{{1, 2, 0}, {0, 1, 1}, {2, 0, 1}})
	a := spd(b)
	want := []float64{1, -2, 3}
	rhs := mulVec(a, want)
	got, err := CholeskySolve(a, rhs)
	if err != nil {
		t.Fatalf("CholeskySolve: %v", err)
	}
	for i := range want {
		if !almostEq(got[i], want[i], 1e-9) {
			t.Fatalf("solution %v, want %v", got, want)
		}
	}
}

func TestCholeskyNotPD(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {2, 1}}) // eigenvalues 3, -1
	if _, err := CholeskySolve(a, []float64{1, 1}); err != ErrNotPositiveDefinite {
		t.Fatalf("want ErrNotPositiveDefinite, got %v", err)
	}
}

func TestSymEigenKnown(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 3 and 1.
	a := FromRows([][]float64{{2, 1}, {1, 2}})
	vals, vecs := SymEigen(a)
	if !almostEq(vals[0], 3, 1e-9) || !almostEq(vals[1], 1, 1e-9) {
		t.Fatalf("eigenvalues %v", vals)
	}
	// Check A v = λ v for both eigenpairs.
	for k := 0; k < 2; k++ {
		v := []float64{vecs.At(0, k), vecs.At(1, k)}
		av := mulVec(a, v)
		for i := range v {
			if !almostEq(av[i], vals[k]*v[i], 1e-8) {
				t.Fatalf("eigenpair %d violated: Av=%v λv=%v", k, av, []float64{vals[k] * v[0], vals[k] * v[1]})
			}
		}
	}
}

func TestSymEigenReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 12
	a := New(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := rng.NormFloat64()
			a.Set(i, j, v)
			a.Set(j, i, v)
		}
	}
	vals, vecs := SymEigen(a)
	// Reconstruct A = V Λ Vᵀ.
	recon := New(n, n)
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				recon.Add(i, j, vals[k]*vecs.At(i, k)*vecs.At(j, k))
			}
		}
	}
	for k := range a.Data {
		if d := math.Abs(a.Data[k] - recon.Data[k]); d > 1e-8 {
			t.Fatalf("reconstruction error %v at %d", d, k)
		}
	}
	// Eigenvalues sorted decreasing.
	for k := 1; k < n; k++ {
		if vals[k] > vals[k-1]+1e-12 {
			t.Fatalf("eigenvalues not sorted: %v", vals)
		}
	}
}

func TestSingularValues(t *testing.T) {
	// Rank-1 matrix u vᵀ has one nonzero singular value = |u||v|.
	u := []float64{1, 2, 2}
	v := []float64{3, 4}
	m := New(3, 2)
	for i := range u {
		for j := range v {
			m.Set(i, j, u[i]*v[j])
		}
	}
	sv := SingularValues(m)
	if !almostEq(sv[0], 15, 1e-8) { // |u|=3, |v|=5
		t.Fatalf("sv[0] = %v, want 15", sv[0])
	}
	if sv[1] > 1e-8 {
		t.Fatalf("sv[1] = %v, want ~0", sv[1])
	}
}

func TestEffectiveRank(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n, r := 30, 4
	// Build symmetric rank-r matrix + small noise.
	f := New(n, r)
	for i := range f.Data {
		f.Data[i] = rng.NormFloat64()
	}
	a := Mul(f, f.T())
	noise := 1e-6
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			e := noise * rng.NormFloat64()
			a.Add(i, j, e)
			if j != i {
				a.Add(j, i, e)
			}
		}
	}
	if got := EffectiveRank(a, 1e-3); got != r {
		t.Fatalf("EffectiveRank = %d, want %d", got, r)
	}
}

func TestEffectiveRankZeroMatrix(t *testing.T) {
	if got := EffectiveRank(New(5, 5), 0.01); got != 0 {
		t.Fatalf("EffectiveRank(zero) = %d", got)
	}
}

// Property: Cholesky solve inverts mat-vec for random SPD systems.
func TestCholeskyProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(8)
		b := New(n, n)
		for i := range b.Data {
			b.Data[i] = r.NormFloat64()
		}
		a := spd(b)
		x := make([]float64, n)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		rhs := mulVec(a, x)
		got, err := CholeskySolve(a, rhs)
		if err != nil {
			return false
		}
		for i := range x {
			if !almostEq(got[i], x[i], 1e-6) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: singular values are non-negative and sorted decreasing.
func TestSingularValuesProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows, cols := 1+r.Intn(10), 1+r.Intn(10)
		m := New(rows, cols)
		for i := range m.Data {
			m.Data[i] = r.NormFloat64()
		}
		sv := SingularValues(m)
		for i, s := range sv {
			if s < -1e-12 {
				return false
			}
			if i > 0 && s > sv[i-1]+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMask(t *testing.T) {
	m := NewMask(4)
	if m.N() != 4 || m.Count() != 0 {
		t.Fatalf("fresh mask wrong")
	}
	m.Set(0, 2)
	if !m.Has(0, 2) || !m.Has(2, 0) {
		t.Fatalf("mask should be symmetric")
	}
	if m.RowCount(0) != 1 || m.RowCount(2) != 1 || m.RowCount(1) != 0 {
		t.Fatalf("RowCount wrong")
	}
	if m.Count() != 2 {
		t.Fatalf("Count = %d, want 2", m.Count())
	}
	m.Set(1, 1)
	if m.Count() != 3 {
		t.Fatalf("diagonal Count = %d, want 3", m.Count())
	}
	entries := 0
	m.Entries(func(i, j int) {
		entries++
		if i > j {
			t.Fatalf("Entries emitted i>j: (%d,%d)", i, j)
		}
	})
	if entries != 2 {
		t.Fatalf("Entries visited %d, want 2", entries)
	}
	c := m.Clone()
	m.Unset(0, 2)
	if m.Has(0, 2) || m.Has(2, 0) {
		t.Fatalf("Unset failed")
	}
	if !c.Has(0, 2) {
		t.Fatalf("Clone aliases original")
	}
	js := c.RowEntries(0)
	if len(js) != 1 || js[0] != 2 {
		t.Fatalf("RowEntries = %v", js)
	}
}
