package bgp

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"metascritic/internal/benchscale"
)

func benchTopology(n int) *Topology {
	rng := rand.New(rand.NewSource(1))
	return randomTopology(rng, n)
}

func BenchmarkPropagate(b *testing.B) {
	n := benchscale.N(30000, 1500)
	top := benchTopology(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		top.PropagateFrom(i % n)
	}
}

// BenchmarkPropagateInto measures the pooled, reuse-everything path — the
// one RouteCache workers ride. Its allocs/op must stay 0 after warm-up;
// TestPropagateIntoZeroAllocs pins that as a regression test.
func BenchmarkPropagateInto(b *testing.B) {
	n := benchscale.N(30000, 1500)
	top := benchTopology(n)
	dst := make([]Route, n)
	origins := make([]Origin, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		origins[0] = Origin{AS: i % n, Flag: 1}
		dst = top.PropagateInto(dst, origins)
	}
}

func BenchmarkSimulateHijack(b *testing.B) {
	n := benchscale.N(30000, 1500)
	top := benchTopology(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		top.SimulateHijack([]int{i % n, (i + 7) % n}, []int{(i + 100) % n})
	}
}

func BenchmarkVisibleLinks(b *testing.B) {
	n := benchscale.N(12000, 600)
	top := benchTopology(n)
	monitors := []int{0, 1, 2, 3, 4}
	dests := make([]int, 100)
	for i := range dests {
		dests[i] = i * 6 % n
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		VisibleLinks(NewRouteCache(top), monitors, dests)
	}
}

// BenchmarkRoutesToAll measures a cold 64-destination sweep: serial is one
// RoutesTo per destination, pooled is the batched fan-out (one scratch per
// worker).
func BenchmarkRoutesToAll(b *testing.B) {
	n := benchscale.N(30000, 1500)
	top := benchTopology(n)
	dests := make([]int, 64)
	for i := range dests {
		dests[i] = (i * 131) % n
	}
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c := NewRouteCache(top)
			for _, d := range dests {
				c.RoutesTo(d)
			}
		}
	})
	b.Run("pooled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c := NewRouteCache(top)
			if _, err := c.RoutesToAll(context.Background(), dests, runtime.GOMAXPROCS(0)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestPropagateIntoZeroAllocs pins the pooled path's allocation-free
// steady state. sync.Pool may be drained by a concurrent GC, so the pin
// tolerates a stray refill rather than demanding a perfect zero.
func TestPropagateIntoZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race; allocation pin only holds in normal builds")
	}
	top := benchTopology(800)
	dst := make([]Route, top.N())
	origins := make([]Origin, 1)
	// Warm the pool and the scratch's bucket arrays.
	for i := 0; i < 5; i++ {
		origins[0] = Origin{AS: i, Flag: 1}
		dst = top.PropagateInto(dst, origins)
	}
	avg := testing.AllocsPerRun(100, func() {
		origins[0] = Origin{AS: 7, Flag: 1}
		dst = top.PropagateInto(dst, origins)
	})
	if avg >= 1 {
		t.Fatalf("pooled PropagateInto allocates %.1f allocs/op after warm-up, want 0", avg)
	}
}
