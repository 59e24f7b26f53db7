package bgp

import (
	"bytes"
	"context"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// routesEqual compares two packed views byte-for-byte.
func routesEqual(a, b Routes) bool {
	if a.Len() != b.Len() {
		return false
	}
	ab := make([]byte, 0, a.Bytes())
	bb := make([]byte, 0, b.Bytes())
	for i := 0; i < a.Len(); i++ {
		ab = append(ab, byte(a.next[i]), byte(a.next[i]>>8), byte(a.next[i]>>16), byte(a.next[i]>>24),
			byte(a.plen[i]), byte(a.plen[i]>>8), a.class[i], a.flags[i])
		bb = append(bb, byte(b.next[i]), byte(b.next[i]>>8), byte(b.next[i]>>16), byte(b.next[i]>>24),
			byte(b.plen[i]), byte(b.plen[i]>>8), b.class[i], b.flags[i])
	}
	return bytes.Equal(ab, bb)
}

// shardAccounting recomputes a cache's byte counter from its live entries
// and checks it matches the incremental bookkeeping.
func shardAccounting(t *testing.T, c *RouteCache) {
	t.Helper()
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		var want int64
		for _, e := range sh.cache {
			want += entrySize(e.routes)
		}
		got := sh.bytes
		sh.mu.Unlock()
		if got != want {
			t.Fatalf("shard %d bytes counter %d, recomputed %d", i, got, want)
		}
	}
}

// Property: a budget-capped cache returns byte-identical routes to an
// unbounded one over the same (random) lookup sequence, for any budget —
// eviction may cost recomputes, never correctness. The one-shot sweeps
// (VisibleLinks, LookingGlass, Flattening) read every destination through
// the same tight budget and must agree with the unbounded cache too.
func TestBudgetedCacheByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 8; trial++ {
		n := 20 + rng.Intn(40)
		top := randomTopology(rng, n)
		free := NewRouteCache(top)
		capped := NewRouteCache(top)
		// A budget near a handful of entries forces constant eviction.
		capped.SetBudget(int64(4 * (8*n + entryOverheadBytes)))
		for i := 0; i < 200; i++ {
			d := rng.Intn(n)
			if !routesEqual(free.RoutesTo(d), capped.RoutesTo(d)) {
				t.Fatalf("trial %d: routes to %d differ between capped and unbounded cache", trial, d)
			}
		}
		dests := rng.Perm(n)
		monitors := dests[:1+rng.Intn(n/4)]
		if a, b := VisibleLinks(free, monitors, dests), VisibleLinks(capped, monitors, dests); !reflect.DeepEqual(a, b) {
			t.Fatalf("trial %d: VisibleLinks differ: %d links unbounded, %d capped", trial, len(a), len(b))
		}
		as := rng.Intn(n)
		if a, b := LookingGlass(free, as, dests), LookingGlass(capped, as, dests); !reflect.DeepEqual(a, b) {
			t.Fatalf("trial %d: LookingGlass(%d) differs between capped and unbounded cache", trial, as)
		}
		if a, b := Flattening(free, monitors, dests), Flattening(capped, monitors, dests); a != b {
			t.Fatalf("trial %d: Flattening differs: unbounded %+v, capped %+v", trial, a, b)
		}
		st := capped.Stats()
		if st.Evicted == 0 {
			t.Fatalf("trial %d: tight budget evicted nothing (stats %+v)", trial, st)
		}
		if st.Bytes > st.BudgetBytes+numShards*int64(8*n+entryOverheadBytes) {
			t.Fatalf("trial %d: bytes %d far above budget %d", trial, st.Bytes, st.BudgetBytes)
		}
		shardAccounting(t, capped)
	}
}

// The budget actually bounds the footprint: sweeping many destinations
// through a capped cache keeps Bytes near the budget and counts evictions,
// while the same sweep on an unbounded cache grows linearly.
func TestBudgetBoundsBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 64
	top := randomTopology(rng, n)
	c := NewRouteCache(top)
	budget := int64(20 * (8*n + entryOverheadBytes))
	c.SetBudget(budget)
	if c.Budget() != budget {
		t.Fatalf("Budget() = %d, want %d", c.Budget(), budget)
	}
	for d := 0; d < n; d++ {
		c.RoutesTo(d)
	}
	st := c.Stats()
	// Each shard may round its share up and retains at least one entry,
	// so allow one entry of slack per shard above the configured budget.
	slack := numShards * int64(8*n+entryOverheadBytes)
	if st.Bytes > budget+slack {
		t.Fatalf("bytes %d exceeds budget %d (+%d slack)", st.Bytes, budget, slack)
	}
	if st.Evicted == 0 || st.EvictedBytes == 0 {
		t.Fatalf("expected evictions, stats %+v", st)
	}
	if st.Entries >= n {
		t.Fatalf("all %d destinations still cached under budget", n)
	}
	shardAccounting(t, c)

	// Removing the bound stops eviction: everything fits again.
	c.SetBudget(0)
	for d := 0; d < n; d++ {
		c.RoutesTo(d)
	}
	evictedBefore := c.Stats().Evicted
	for d := 0; d < n; d++ {
		c.RoutesTo(d)
	}
	st = c.Stats()
	if st.Entries != n {
		t.Fatalf("unbounded cache holds %d entries, want %d", st.Entries, n)
	}
	if st.Evicted != evictedBefore {
		t.Fatalf("unbounded cache evicted (%d -> %d)", evictedBefore, st.Evicted)
	}
}

// Second chance: entries the working set keeps hitting survive a sweep of
// cold lookups; purely cold entries are the ones evicted.
func TestEvictionPrefersCold(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 96
	top := randomTopology(rng, n)
	c := NewRouteCache(top)
	c.SetBudget(int64(32 * (8*n + entryOverheadBytes)))

	hot := []int{3, 17, 29, 41}
	touchHot := func() {
		for _, d := range hot {
			c.RoutesTo(d)
		}
	}
	touchHot()
	for d := 0; d < n; d++ {
		c.RoutesTo(d)
		if d%4 == 0 {
			touchHot() // keep the clock bits set while cold entries stream by
		}
	}
	for _, d := range hot {
		if !c.Contains(d) {
			t.Fatalf("hot destination %d was evicted despite constant hits", d)
		}
	}
	if st := c.Stats(); st.Evicted == 0 {
		t.Fatalf("cold sweep evicted nothing, stats %+v", st)
	}
}

// Eviction composes with epoch invalidation: scoped and full invalidation
// leave stale queue slots behind, and subsequent budgeted inserts must
// skip them without corrupting the byte accounting or the route results.
func TestEvictionComposesWithInvalidation(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	n := 60
	top := randomTopology(rng, n)
	c := NewRouteCache(top)
	c.SetBudget(int64(10 * (8*n + entryOverheadBytes)))
	for d := 0; d < n; d++ {
		c.RoutesTo(d)
	}
	if top.RemoveP2P(1, 2) {
		top.AddP2P(1, 2)
	}
	c.Invalidate([][2]int{{1, 2}})
	shardAccounting(t, c)
	for d := 0; d < n; d++ {
		c.RoutesTo(d)
	}
	shardAccounting(t, c)
	c.InvalidateAll()
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("InvalidateAll left entries=%d bytes=%d", st.Entries, st.Bytes)
	}
	for d := 0; d < n; d++ {
		fresh := top.PropagateFrom(d)
		got := c.RoutesTo(d).Expand()
		for a := range got {
			if got[a] != fresh[a] {
				t.Fatalf("post-invalidation route mismatch dest %d as %d", d, a)
			}
		}
	}
	shardAccounting(t, c)
}

// Concurrent RoutesTo / Warm / eviction / invalidation / stats: the
// budgeted cache's concurrency contract, exercised under `make check`.
func TestConcurrentEvictInvalidateRace(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 50
	top := randomTopology(rng, n)
	c := NewRouteCache(top)
	c.SetBudget(int64(8 * (8*n + entryOverheadBytes)))

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 300; i++ {
				c.RoutesTo(r.Intn(n))
			}
		}(int64(w))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			c.Warm(context.Background(), []int{i % n, (i * 7) % n, (i * 13) % n}, 2)
			c.Stats()
		}
	}()
	wg.Wait()

	// Mutation + invalidation requires exclusive topology access (the
	// serving layer's world lock), so it runs after the readers drain.
	c.Invalidate([][2]int{{0, 1}})
	shardAccounting(t, c)
	for d := 0; d < n; d++ {
		c.RoutesTo(d)
	}
	shardAccounting(t, c)
}
