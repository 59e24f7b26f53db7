package bgp

// Topology mutation and epoch-scoped route-cache invalidation: the BGP
// layer's half of the streaming-world contract. When a churn batch lands
// the topology is edited in place, and instead of discarding the whole
// route cache the caller invalidates only the destinations whose results
// can actually change — a destination's routes depend on a link (a,b)
// only if a or b selected a route toward it, so every unaffected cached
// view survives into the next epoch and keeps serving hits.
//
// Mutation and invalidation are NOT safe to run concurrently with
// propagation: callers must hold the topology exclusively (the serving
// layer's world lock) across the edit + Invalidate sequence. Cached
// views handed out before the edit stay immutable and valid for their
// epoch.

// RemoveP2P deletes the peering between a and b, preserving adjacency
// order, and reports whether a link was removed.
func (t *Topology) RemoveP2P(a, b int) bool {
	la, oka := removeAdj(t.peers[a], int32(b))
	lb, okb := removeAdj(t.peers[b], int32(a))
	if !oka || !okb {
		return oka || okb
	}
	t.peers[a], t.peers[b] = la, lb
	return true
}

// Grow extends the topology to n ASes with empty adjacency (new-AS
// arrivals). It is a no-op when the topology is already that large.
func (t *Topology) Grow(n int) {
	for t.n < n {
		t.providers = append(t.providers, nil)
		t.customers = append(t.customers, nil)
		t.peers = append(t.peers, nil)
		t.n++
	}
}

// HasP2P reports whether a and b currently peer.
func (t *Topology) HasP2P(a, b int) bool {
	for _, x := range t.peers[a] {
		if x == int32(b) {
			return true
		}
	}
	return false
}

// removeAdj deletes the first occurrence of v in place, preserving order
// (adjacency rows are capacity-clamped, so the shift stays inside the
// row's own backing segment).
func removeAdj(xs []int32, v int32) ([]int32, bool) {
	for i, x := range xs {
		if x == v {
			copy(xs[i:], xs[i+1:])
			return xs[:len(xs)-1], true
		}
	}
	return xs, false
}

// Invalidate drops every cached destination whose routes can be affected
// by churn (removal or addition) of the given peering links, advances the
// cache epoch, and returns the number of entries dropped.
//
// The staleness test is exact up to flag ties, and rests on how peerings
// enter Gao-Rexford propagation: a peer edge (a,b) carries exactly one
// kind of candidate — each endpoint's customer-or-origin route, exported
// to the other side (scratch.go phase 2). Customer routes themselves
// never traverse peer edges, so churning the link cannot change either
// endpoint's customer-class state, and the cached selection is enough to
// decide influence per side:
//
//   - the exporter has no customer/origin route (selected class below
//     customer) — nothing crosses the link, no influence;
//   - the importer's selected class is customer or better — peer
//     candidates are never selected and never re-exported, no influence;
//   - the importer selects a peer route — the link matters iff the
//     candidate (exporter's length + 1) is no longer than the selection
//     (shorter = reroute, equal = tie flags / hop tie-break);
//   - the importer selects a provider route or nothing — a peer route is
//     strictly preferred, so the link always matters.
//
// Everything failing the test on every churned link is retained and keeps
// serving hits. Index-space growth (new-AS arrival) is not expressible as
// a link set; use InvalidateAll after Grow. Transit (C2P) churn is out of
// scope for the same reason.
// Dropped entries leave their clock-queue slots behind; eviction skips
// them lazily by sequence mismatch, so invalidation stays O(cached
// entries) with no queue surgery.
func (c *RouteCache) Invalidate(links [][2]int) int {
	dropped := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for d, e := range sh.cache {
			if routesAffected(e.routes, links) {
				sh.bytes -= entrySize(e.routes)
				delete(sh.cache, d)
				dropped++
			} else {
				c.retained.Add(1)
			}
		}
		sh.mu.Unlock()
	}
	c.epoch.Add(1)
	c.invalidated.Add(int64(dropped))
	return dropped
}

// routesAffected reports whether churn on any of the given peering links
// can change the cached view r (see Invalidate for the argument).
func routesAffected(r Routes, links [][2]int) bool {
	n := r.Len()
	for _, l := range links {
		a, b := l[0], l[1]
		if a < 0 || b < 0 || a >= n || b >= n {
			return true // outside this view's index space: be conservative
		}
		if peerInfluences(r, a, b) || peerInfluences(r, b, a) {
			return true
		}
	}
	return false
}

// peerInfluences reports whether exporter's customer-or-origin route (if
// any) can influence importer's state across a peering edge between them.
func peerInfluences(r Routes, exporter, importer int) bool {
	if r.Class(exporter) < ClassCustomer {
		return false // nothing exportable over a peering
	}
	switch ic := r.Class(importer); {
	case ic >= ClassCustomer:
		return false // peer candidates are neither selected nor re-exported
	case ic == ClassPeer:
		return r.PathLen(exporter)+1 <= r.PathLen(importer)
	default:
		return true // provider route or unreachable: a peer route wins
	}
}

// InvalidateAll drops every cached destination, advances the cache
// epoch, and returns the number of entries dropped. Required after the
// AS index space grows (Topology.Grow).
func (c *RouteCache) InvalidateAll() int {
	dropped := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		dropped += len(sh.cache)
		sh.cache = map[int]*cacheEntry{}
		sh.queue = nil
		sh.qhead = 0
		sh.bytes = 0
		sh.mu.Unlock()
	}
	c.epoch.Add(1)
	c.invalidated.Add(int64(dropped))
	return dropped
}
