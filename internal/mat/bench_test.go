package mat

import (
	"math/rand"
	"testing"
)

func randomSPD(n int, seed int64) *Matrix {
	rng := rand.New(rand.NewSource(seed))
	b := New(n, n)
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	return spd(b)
}

func BenchmarkCholeskySolve(b *testing.B) {
	for _, n := range []int{16, 64} {
		b.Run(sizeName(n), func(b *testing.B) {
			a := randomSPD(n, 1)
			rhs := make([]float64, n)
			for i := range rhs {
				rhs[i] = float64(i)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := CholeskySolve(a, rhs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSymEigen(b *testing.B) {
	for _, n := range []int{16, 64} {
		b.Run(sizeName(n), func(b *testing.B) {
			a := randomSPD(n, 2)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				SymEigen(a)
			}
		})
	}
}

func BenchmarkMul(b *testing.B) {
	a := randomSPD(96, 3)
	c := randomSPD(96, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Mul(a, c)
	}
}

func BenchmarkEffectiveRank(b *testing.B) {
	a := randomSPD(64, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EffectiveRank(a, 0.05)
	}
}

func sizeName(n int) string {
	switch n {
	case 16:
		return "n16"
	case 64:
		return "n64"
	default:
		return "n"
	}
}
