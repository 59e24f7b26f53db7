package bgp

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"metascritic/internal/asgraph"
	"metascritic/internal/par"
)

// numShards spreads the route cache over independently locked shards so
// concurrent metros (and fan-out workers) touching different destinations
// never contend on one mutex. 16 is comfortably above the engine's worker
// counts and keeps the shard picker a shift-and-mask.
const numShards = 16

// entryOverheadBytes is the per-entry bookkeeping charged on top of the
// packed Routes storage: the Routes slice headers + seq/ref inside
// cacheEntry (~112 B as a heap object), the map bucket share for an
// int→pointer entry (~24 B amortized), and the clock-queue slot (8 B).
// The byte budget is meant to bound real process footprint, so the
// accounting must include what the shard structures themselves cost, not
// just the arrays they point at.
const entryOverheadBytes = 144

// shardOf maps a destination to its shard with a Fibonacci hash — cheap
// and well mixed even for the sequential destination ids the experiments
// sweep.
func shardOf(dest int) uint32 {
	return (uint32(dest) * 0x9E3779B9) >> 28 & (numShards - 1)
}

// RouteCache computes and memoizes per-destination propagation results in
// the packed Routes encoding. It is safe for concurrent use: the cache is
// sharded by destination hash, and concurrent misses on the same
// destination are deduplicated singleflight-style — the first caller runs
// the propagation, every other caller blocks on that in-flight computation
// instead of duplicating the run. Under the multi-metro engine many metros
// ask for the same transit destinations at once.
//
// The cache can be byte-bounded (SetBudget): each shard keeps a
// second-chance FIFO over its entries and evicts cold destinations once
// its share of the budget is exceeded. Eviction only drops the cache's
// reference — published views stay immutable and valid — and an evicted
// destination recomputes through the normal singleflight path on its next
// lookup, so a bounded cache returns byte-identical routes to an unbounded
// one (propagation is deterministic per topology epoch).
//
// Returned Routes views are immutable; callers may hold them indefinitely.
type RouteCache struct {
	t      *Topology
	shards [numShards]cacheShard

	// budget is the total byte budget across shards; 0 means unbounded.
	budget atomic.Int64

	// propNanos accumulates wall-time spent inside propagation runs
	// (summed across workers, so it can exceed elapsed time on
	// multi-core fan-outs).
	propNanos atomic.Int64

	// epoch counts invalidation passes (see mutate.go); invalidated and
	// retained tally entries dropped vs. kept across those passes.
	epoch       atomic.Uint32
	invalidated atomic.Int64
	retained    atomic.Int64
}

type cacheShard struct {
	mu       sync.Mutex
	cache    map[int]*cacheEntry
	inflight map[int]*routeFlight

	// queue is the second-chance FIFO: one live slot per cached entry,
	// identified by (dest, seq). Slots are popped from qhead; a slot
	// whose seq no longer matches the map entry is stale (the entry was
	// invalidated or recycled) and is skipped lazily, which keeps
	// Invalidate O(affected entries) with no queue surgery.
	queue   []clockSlot
	qhead   int
	nextSeq uint32

	hits         int64 // lookups served from cache
	computed     int64 // propagation runs actually executed
	bytes        int64 // footprint held: packed storage + per-entry overhead
	evicted      int64 // entries dropped by budget eviction
	evictedBytes int64 // bytes released by budget eviction
}

// cacheEntry is one cached destination. ref is the clock bit: set on every
// hit, cleared (second chance) the first time the eviction scan reaches
// the entry, evicted the second time.
type cacheEntry struct {
	routes Routes
	seq    uint32
	ref    bool
}

type clockSlot struct {
	dest int32
	seq  uint32
}

// routeFlight is one in-progress propagation; routes is written before
// done is closed and read only after it.
type routeFlight struct {
	done   chan struct{}
	routes Routes
}

// NewRouteCache returns an unbounded cache over t.
func NewRouteCache(t *Topology) *RouteCache {
	c := &RouteCache{t: t}
	for i := range c.shards {
		c.shards[i].cache = map[int]*cacheEntry{}
		c.shards[i].inflight = map[int]*routeFlight{}
	}
	return c
}

// SetBudget bounds the cache to roughly budget bytes of route storage
// (packed arrays + per-entry overhead), split evenly across shards. A
// budget <= 0 removes the bound. Shrinking the budget evicts immediately;
// each shard always retains at least one entry, so a budget smaller than
// one packed view degrades to per-shard most-recent caching rather than
// thrashing forever.
func (c *RouteCache) SetBudget(budget int64) {
	if budget < 0 {
		budget = 0
	}
	c.budget.Store(budget)
	if budget == 0 {
		return
	}
	per := c.shardBudget()
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		sh.evict(per)
		sh.mu.Unlock()
	}
}

// shardBudget is one shard's share of the total budget, rounded up.
func (c *RouteCache) shardBudget() int64 {
	b := c.budget.Load()
	if b <= 0 {
		return 0
	}
	return (b + numShards - 1) / numShards
}

// entrySize is the footprint charged for one cached view.
func entrySize(r Routes) int64 { return int64(r.Bytes()) + entryOverheadBytes }

// RoutesTo returns (computing if needed) all ASes' best routes toward
// dest as a packed view. A hit sets the entry's clock bit; a miss admits
// the new view and evicts down to the shard's budget share.
func (c *RouteCache) RoutesTo(dest int) Routes {
	sh := &c.shards[shardOf(dest)]
	sh.mu.Lock()
	if e, ok := sh.cache[dest]; ok {
		sh.hits++
		e.ref = true
		r := e.routes
		sh.mu.Unlock()
		return r
	}
	if fl, ok := sh.inflight[dest]; ok {
		// Someone else is already propagating this destination: wait for
		// their result instead of duplicating the run.
		sh.mu.Unlock()
		<-fl.done
		return fl.routes
	}
	fl := &routeFlight{done: make(chan struct{})}
	sh.inflight[dest] = fl
	sh.computed++
	sh.mu.Unlock()

	scratch := getScratch(c.t.n)
	start := time.Now()
	scratch.origin1[0] = Origin{AS: dest, Flag: 1}
	scratch.run(c.t, scratch.origin1[:])
	r := newRoutes(c.t.n)
	scratch.emitPacked(r)
	c.propNanos.Add(time.Since(start).Nanoseconds())
	putScratch(scratch)
	fl.routes = r

	sh.mu.Lock()
	sh.insert(dest, r)
	sh.evict(c.shardBudget())
	delete(sh.inflight, dest)
	sh.mu.Unlock()
	close(fl.done)
	return r
}

// insert adds a freshly computed view under sh.mu.
func (sh *cacheShard) insert(dest int, r Routes) {
	sh.nextSeq++
	sh.cache[dest] = &cacheEntry{routes: r, seq: sh.nextSeq}
	sh.queue = append(sh.queue, clockSlot{dest: int32(dest), seq: sh.nextSeq})
	sh.bytes += entrySize(r)
}

// evict walks the second-chance queue under sh.mu until the shard fits its
// budget share (0 = unbounded, no-op). Entries with the clock bit set get
// it cleared and move to the back; stale slots — seq mismatch after an
// invalidation or recycle — are skipped. At least one entry is always
// retained so an oversized single view cannot thrash.
func (sh *cacheShard) evict(budget int64) {
	if budget <= 0 {
		return
	}
	for sh.bytes > budget && len(sh.cache) > 1 && sh.qhead < len(sh.queue) {
		slot := sh.queue[sh.qhead]
		sh.qhead++
		e, ok := sh.cache[int(slot.dest)]
		if !ok || e.seq != slot.seq {
			continue // stale: entry invalidated or recycled since queued
		}
		if e.ref {
			e.ref = false
			sh.queue = append(sh.queue, slot)
			continue
		}
		size := entrySize(e.routes)
		delete(sh.cache, int(slot.dest))
		sh.bytes -= size
		sh.evicted++
		sh.evictedBytes += size
	}
	sh.compact()
}

// compact reclaims the consumed queue prefix once it dominates the slice,
// keeping queue memory proportional to the live entry count.
func (sh *cacheShard) compact() {
	if sh.qhead > 64 && sh.qhead > len(sh.queue)/2 {
		n := copy(sh.queue, sh.queue[sh.qhead:])
		sh.queue = sh.queue[:n]
		sh.qhead = 0
	}
}

// Contains reports whether dest's routes are already cached. An in-flight
// computation counts as absent: the caller may still want to join it via
// RoutesTo, and a prefetcher that skips in-flight destinations would give
// up the chance to block until they are warm.
func (c *RouteCache) Contains(dest int) bool {
	sh := &c.shards[shardOf(dest)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	_, ok := sh.cache[dest]
	return ok
}

// Warm computes routes for every distinct destination in dests that is not
// yet cached, fanning the propagation runs out through par.For (workers <=
// 0 means GOMAXPROCS); each run borrows a pooled scratch. It returns the
// number of distinct missing destinations it set out to compute.
// Cancelling ctx stops the fan-out early; destinations already claimed keep
// computing via singleflight, so no waiter is ever stranded.
func (c *RouteCache) Warm(ctx context.Context, dests []int, workers int) int {
	seen := make(map[int]struct{}, len(dests))
	todo := make([]int, 0, len(dests))
	for _, d := range dests {
		if _, ok := seen[d]; ok {
			continue
		}
		seen[d] = struct{}{}
		if !c.Contains(d) {
			todo = append(todo, d)
		}
	}
	par.For(len(todo), workers, func(_, i int) {
		if ctx.Err() == nil {
			c.RoutesTo(todo[i])
		}
	})
	return len(todo)
}

// RoutesToAll is the batch form of RoutesTo: it warms every distinct
// missing destination across the worker pool, then gathers the views in
// input order (out[i] corresponds to dests[i]; duplicate destinations
// share one cached view). On cancellation it returns ctx.Err without
// gathering.
func (c *RouteCache) RoutesToAll(ctx context.Context, dests []int, workers int) ([]Routes, error) {
	c.Warm(ctx, dests, workers)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out := make([]Routes, len(dests))
	for i, d := range dests {
		out[i] = c.RoutesTo(d)
	}
	return out, nil
}

// Computed returns the number of propagation runs executed so far — the
// cache's miss count after singleflight deduplication (used by tests and
// run stats).
func (c *RouteCache) Computed() int64 {
	var total int64
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		total += sh.computed
		sh.mu.Unlock()
	}
	return total
}

// Topology returns the underlying topology.
func (c *RouteCache) Topology() *Topology { return c.t }

// CacheStats is a point-in-time snapshot of a route cache's counters,
// surfaced through engine.RunStats, the daemon's /admin/stats, and the
// CLI batch summary.
type CacheStats struct {
	Shards       int           // number of lock shards
	Entries      int           // cached destinations
	Bytes        int64         // footprint held (packed storage + per-entry overhead)
	BudgetBytes  int64         // configured byte budget (0 = unbounded)
	Hits         int64         // lookups served from cache
	Computed     int64         // propagation runs executed (misses after dedup)
	Evicted      int64         // entries dropped by budget eviction
	EvictedBytes int64         // bytes released by budget eviction
	PropTime     time.Duration // wall-time summed over propagation runs
	Epoch        uint32        // invalidation passes absorbed
	Invalidated  int64         // entries dropped by scoped/full invalidation
	Retained     int64         // entries that survived scoped invalidation passes
}

// Stats snapshots the cache counters across all shards.
func (c *RouteCache) Stats() CacheStats {
	st := CacheStats{
		Shards:      numShards,
		BudgetBytes: c.budget.Load(),
		PropTime:    time.Duration(c.propNanos.Load()),
		Epoch:       c.epoch.Load(),
		Invalidated: c.invalidated.Load(),
		Retained:    c.retained.Load(),
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		st.Entries += len(sh.cache)
		st.Bytes += sh.bytes
		st.Hits += sh.hits
		st.Computed += sh.computed
		st.Evicted += sh.evicted
		st.EvictedBytes += sh.evictedBytes
		sh.mu.Unlock()
	}
	return st
}

// VisibleLinks returns the AS-level links that appear on the best paths
// from the monitor ASes toward every destination: the "public BGP view" of
// a set of collectors. Valley-free export makes peering links invisible
// unless a monitor sits in one of the peers or their customer cones,
// reproducing the visibility bias of §1.
//
// Per destination the selected routes form an in-tree (one next hop per
// AS), so instead of re-walking one full path per monitor the walk stops
// at the first AS already visited for this destination — every link past
// it was emitted by an earlier monitor's walk.
func VisibleLinks(cache *RouteCache, monitors []int, dests []int) map[asgraph.Pair]bool {
	visible := map[asgraph.Pair]bool{}
	n := cache.t.n
	visited := make([]uint32, n)
	var epoch uint32
	for _, d := range dests {
		routes := cache.RoutesTo(d)
		epoch++
		for _, m := range monitors {
			if m < 0 || m >= n || !routes.Reachable(m) {
				continue
			}
			cur := m
			for steps := 0; routes.Class(cur) != ClassOwn; steps++ {
				if visited[cur] == epoch {
					break // suffix already emitted for this destination
				}
				visited[cur] = epoch
				nh := routes.NextHop(cur)
				if nh < 0 || steps > n {
					break // defensive: corrupt route state
				}
				visible[asgraph.MakePair(cur, nh)] = true
				cur = nh
			}
		}
	}
	return visible
}
