package probe

import (
	"fmt"
	"math/rand"
	"testing"

	"metascritic/internal/asgraph"
)

// BenchmarkSelectBatch times one 150-measurement SelectBatch on a
// calibrated selector: exploit-heavy at a campaign metro's size (ε = 0)
// and explore-heavy at the 10k-AS head metro's size (ε = 0.1). Every
// iteration reseeds the RNG and replays the same batch from the same
// selector state. src=rand draws from a plain *rand.Rand, which replays
// skipped draws one by one; src=stream draws from a Stream the selector
// was told about, which skips them in bulk.
func BenchmarkSelectBatch(b *testing.B) {
	for _, tc := range []struct {
		n   int
		eps float64
	}{{230, 0}, {800, 0.1}} {
		for _, src := range []string{"rand", "stream"} {
			b.Run(fmt.Sprintf("members=%d/eps=%v/src=%s", tc.n, tc.eps, src), func(b *testing.B) {
				world := rand.New(rand.NewSource(1))
				g, members, vps, hitlist := goldenWorld(world, tc.n, [asgraph.NumGeoScopes]int{8, 40, 120, 400})
				s := NewSelector(g, 0, members, vps, hitlist)
				n := tc.n
				mask := make([]bool, n*n)
				for _, m := range s.BootstrapPlan(4, 600, world) {
					inf := world.Intn(3) == 0
					s.Report(m, inf)
					if inf {
						i, j := s.Index[m.LinkI], s.Index[m.LinkJ]
						mask[i*n+j], mask[j*n+i] = true, true
					}
				}
				has := func(i, j int) bool { return mask[i*n+j] }
				fill, need := make([]int, n), make([]int, n)
				for i := range fill {
					for j := 0; j < n; j++ {
						if mask[i*n+j] {
							fill[i]++
						}
					}
					need[i] = 3
				}
				rng := rand.New(rand.NewSource(1))
				if src == "stream" {
					st := NewStream(1)
					s.UseStream(st)
					rng = st.Rand()
				}
				b.ReportAllocs()
				b.ResetTimer()
				for it := 0; it < b.N; it++ {
					clear(s.explored)
					rng.Seed(1)
					if len(s.SelectBatch(150, tc.eps, fill, need, has, rng)) == 0 {
						b.Fatal("empty batch")
					}
				}
			})
		}
	}
}
