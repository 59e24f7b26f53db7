package bgp

import (
	"math/rand"
	"testing"
)

func hasAdj(xs []int32, v int32) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

func sameRoutes(a, b Routes) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		if a.At(i) != b.At(i) {
			return false
		}
	}
	return true
}

// TestInvalidateScopedSoundness is the load-bearing property of the
// epoch invalidation: after random link churn + Invalidate(links),
// every destination — recomputed or retained — must serve routes
// byte-identical to a cold cache over the mutated topology.
func TestInvalidateScopedSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	retainedTotal := 0
	for trial := 0; trial < 25; trial++ {
		n := 30 + rng.Intn(40)
		topo := randomTopology(rng, n)
		c := NewRouteCache(topo)
		for d := 0; d < n; d++ {
			c.RoutesTo(d)
		}

		// Random churn: drop some existing peerings, add some new ones.
		var links [][2]int
		var peerings [][2]int
		for a := 0; a < n; a++ {
			for _, b := range topo.peers[a] {
				if a < int(b) {
					peerings = append(peerings, [2]int{a, int(b)})
				}
			}
		}
		for k := 0; k < 3 && len(peerings) > 0; k++ {
			i := rng.Intn(len(peerings))
			pr := peerings[i]
			peerings = append(peerings[:i], peerings[i+1:]...)
			if !topo.RemoveP2P(pr[0], pr[1]) {
				t.Fatalf("trial %d: RemoveP2P(%d,%d) found no link", trial, pr[0], pr[1])
			}
			links = append(links, pr)
		}
		for k := 0; k < 3; k++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if a == b || hasAdj(topo.peers[a], int32(b)) ||
				hasAdj(topo.providers[a], int32(b)) || hasAdj(topo.customers[a], int32(b)) {
				continue
			}
			topo.AddP2P(a, b)
			links = append(links, [2]int{a, b})
		}

		dropped := c.Invalidate(links)
		retainedTotal += n - dropped
		cold := NewRouteCache(topo)
		for d := 0; d < n; d++ {
			if got, want := c.RoutesTo(d), cold.RoutesTo(d); !sameRoutes(got, want) {
				t.Fatalf("trial %d: dest %d routes diverge after scoped invalidation (dropped=%d, links=%v)",
					trial, d, dropped, links)
			}
		}
	}
	// The criterion must actually be scoped: across the random trials a
	// solid share of warm entries has to survive link churn.
	if retainedTotal == 0 {
		t.Fatal("scoped invalidation never retained a single entry across 25 trials")
	}
	t.Logf("retained %d entries across trials", retainedTotal)
}

// TestInvalidateRetainsUnaffected pins that scoped invalidation actually
// retains entries: on a line topology 0—1—2 … a leaf-link edit must not
// evict destinations on the far side that never route through it.
func TestInvalidateRetainsUnaffected(t *testing.T) {
	// Two provider trees joined only at the root peering: 1←0, 2←0 … and
	// a disjoint island 3←4 with no route between the components.
	topo := NewTopology(6)
	topo.AddC2P(1, 0) // 1 buys from 0
	topo.AddC2P(2, 0)
	topo.AddP2P(1, 2)
	topo.AddC2P(3, 4) // island: {3,4,5}
	topo.AddP2P(4, 5)
	c := NewRouteCache(topo)
	for d := 0; d < 6; d++ {
		c.RoutesTo(d)
	}
	// Churn inside the island: mainland destinations are unreachable from
	// 4 and 5, so their entries must survive.
	topo.RemoveP2P(4, 5)
	dropped := c.Invalidate([][2]int{{4, 5}})
	if dropped == 0 {
		t.Fatal("island churn dropped nothing; island destinations route through 4-5")
	}
	st := c.Stats()
	if st.Epoch != 1 {
		t.Fatalf("epoch = %d, want 1", st.Epoch)
	}
	if st.Invalidated != int64(dropped) || st.Retained == 0 {
		t.Fatalf("stats = %+v, want Invalidated=%d and Retained>0", st, dropped)
	}
	if dropped >= 6 {
		t.Fatalf("all %d entries dropped; invalidation is not destination-scoped", dropped)
	}
	if c.Contains(4) {
		t.Fatal("dest 4 survived invalidation though 4 routes to itself")
	}
	if !c.Contains(0) {
		t.Fatal("mainland dest 0 was evicted by island churn")
	}
}

func TestInvalidateAllAfterGrow(t *testing.T) {
	topo := NewTopology(3)
	topo.AddC2P(1, 0)
	topo.AddC2P(2, 0)
	c := NewRouteCache(topo)
	for d := 0; d < 3; d++ {
		c.RoutesTo(d)
	}
	topo.Grow(4)
	if topo.N() != 4 {
		t.Fatalf("N = %d, want 4", topo.N())
	}
	topo.AddC2P(3, 1)
	if dropped := c.InvalidateAll(); dropped != 3 {
		t.Fatalf("InvalidateAll dropped %d, want 3", dropped)
	}
	r := c.RoutesTo(3)
	if r.Len() != 4 {
		t.Fatalf("post-grow routes sized %d, want 4", r.Len())
	}
	if !r.Reachable(0) || r.PathLen(0) != 2 {
		t.Fatalf("AS 0 cannot reach the new AS: %+v", r.At(0))
	}
	st := c.Stats()
	if st.Epoch != 1 || st.Invalidated != 3 {
		t.Fatalf("stats = %+v, want Epoch=1 Invalidated=3", st)
	}
}
