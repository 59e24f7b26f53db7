package als

import (
	"math/rand"
	"testing"

	"metascritic/internal/benchscale"
	"metascritic/internal/mat"
)

func benchProblem(n int, fill float64) (*mat.Matrix, *mat.Mask, *mat.Matrix) {
	truth := lowRankMatrix(n, 8, 1)
	rng := rand.New(rand.NewSource(2))
	mask := maskFraction(n, fill, rng)
	features := mat.New(n, 16)
	for i := range features.Data {
		features.Data[i] = rng.NormFloat64()
	}
	return truth, mask, features
}

// benchSizes scales with METASCRITIC_BENCH_SCALE: 64/128 at the CI
// trajectory scale of 0.05.
func benchSizes() []int {
	big := benchscale.N(2560, 64)
	return []int{big / 2, big}
}

func BenchmarkComplete(b *testing.B) {
	for i, n := range benchSizes() {
		name := "half"
		if i == 1 {
			name = "full"
		}
		b.Run(name, func(b *testing.B) {
			E, mask, feat := benchProblem(n, 0.25)
			opts := DefaultOptions(12)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				NewProblem(E, mask, feat).CompleteFactors(opts, nil, nil)
			}
		})
	}
}
