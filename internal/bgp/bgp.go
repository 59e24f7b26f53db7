// Package bgp implements Gao-Rexford interdomain route propagation over an
// AS-level topology, the routing substrate the paper uses everywhere: to
// simulate traceroutes, to model the public BGP view of collectors, to
// predict the impact of prefix hijacks (§6, Fig. 7), and to compute the
// flattening metrics of Table 3.
//
// The model follows the standard Gao-Rexford conditions [58]:
//
//   - route preference: customer routes > peer routes > provider routes,
//     then shortest AS-path, then lowest next-hop index (deterministic
//     tie-break);
//   - export: customer routes (and own prefixes) are exported to everyone;
//     peer and provider routes are exported only to customers (valley-free
//     routing).
//
// Propagation supports several simultaneous origins for the same prefix,
// tracking per-AS which origins are reachable over routes tied for best —
// the paper "propagates all paths that are tied for best according to the
// Gao-Rexford model".
//
// The package is built for throughput, because every experiment funnels
// through it:
//
//   - Propagation runs on a pooled, epoch-stamped workspace (propScratch):
//     after warm-up a run touches only the ASes it reaches and performs no
//     allocations. PropagateInto exposes the pooled path directly;
//     Propagate/PropagateFrom are thin wrappers with unchanged results.
//   - The provider-route Dijkstra uses a Dial bucket queue (all edge
//     relaxations are +1), replacing the binary heap of earlier revisions.
//   - RouteCache is sharded by destination hash, stores results in a
//     compact struct-of-arrays encoding (Routes, ~8 bytes per AS), and
//     batch-computes missing destinations through par.For
//     (Warm/RoutesToAll) with singleflight deduplication per destination.
package bgp

import (
	"math"

	"metascritic/internal/asgraph"
)

// Topology is the AS-level routing substrate: a transit hierarchy plus a
// peering mesh. Build one with NewTopology/AddC2P/AddP2P or FromGraph.
type Topology struct {
	n         int
	providers [][]int32 // providers[a] = ASes a buys transit from
	customers [][]int32 // reverse of providers
	peers     [][]int32
}

// NewTopology returns an empty topology over n ASes.
func NewTopology(n int) *Topology {
	return &Topology{
		n:         n,
		providers: make([][]int32, n),
		customers: make([][]int32, n),
		peers:     make([][]int32, n),
	}
}

// FromGraph copies the adjacency of an asgraph.Graph, sizing every
// adjacency list exactly over one backing array per relation.
func FromGraph(g *asgraph.Graph) *Topology {
	n := g.N()
	t := NewTopology(n)
	provDeg := make([]int, n)
	custDeg := make([]int, n)
	peerDeg := make([]int, n)
	for c := range g.Providers {
		for _, p := range g.Providers[c] {
			provDeg[c]++
			custDeg[p]++
		}
	}
	for a := range g.Peers {
		peerDeg[a] = len(g.Peers[a])
	}
	t.providers = carveAdj(provDeg)
	t.customers = carveAdj(custDeg)
	t.peers = carveAdj(peerDeg)
	for c := range g.Providers {
		for _, p := range g.Providers[c] {
			t.providers[c] = append(t.providers[c], int32(p))
			t.customers[p] = append(t.customers[p], int32(c))
		}
	}
	for a := range g.Peers {
		for _, b := range g.Peers[a] {
			t.peers[a] = append(t.peers[a], int32(b))
		}
	}
	return t
}

// carveAdj carves per-AS slices of the given capacities (and length 0)
// out of a single backing array. The slices are capacity-clamped, so a
// later append past an AS's degree reallocates instead of bleeding into
// its neighbor's list.
func carveAdj(deg []int) [][]int32 {
	total := 0
	for _, d := range deg {
		total += d
	}
	backing := make([]int32, total)
	out := make([][]int32, len(deg))
	off := 0
	for i, d := range deg {
		if d == 0 {
			continue
		}
		out[i] = backing[off : off : off+d]
		off += d
	}
	return out
}

// N returns the number of ASes.
func (t *Topology) N() int { return t.n }

// AddC2P records that customer buys transit from provider.
func (t *Topology) AddC2P(customer, provider int) {
	t.providers[customer] = append(t.providers[customer], int32(provider))
	t.customers[provider] = append(t.customers[provider], int32(customer))
}

// AddP2P records a settlement-free peering between a and b.
func (t *Topology) AddP2P(a, b int) {
	t.peers[a] = append(t.peers[a], int32(b))
	t.peers[b] = append(t.peers[b], int32(a))
}

// Clone returns a deep copy that can be extended independently (used to
// derive the +measured and +inferred prediction topologies). Each relation
// is copied into one exactly sized backing array; the per-AS slices are
// capacity-clamped so appends on the clone reallocate instead of
// clobbering a neighbor's adjacency.
func (t *Topology) Clone() *Topology {
	return &Topology{
		n:         t.n,
		providers: cloneAdj(t.providers),
		customers: cloneAdj(t.customers),
		peers:     cloneAdj(t.peers),
	}
}

func cloneAdj(adj [][]int32) [][]int32 {
	total := 0
	for _, s := range adj {
		total += len(s)
	}
	backing := make([]int32, 0, total)
	out := make([][]int32, len(adj))
	for i, s := range adj {
		if len(s) == 0 {
			continue
		}
		off := len(backing)
		backing = append(backing, s...)
		out[i] = backing[off:len(backing):len(backing)]
	}
	return out
}

// NumP2P returns the number of distinct peering links.
func (t *Topology) NumP2P() int {
	total := 0
	for _, ps := range t.peers {
		total += len(ps)
	}
	return total / 2
}

// RouteClass orders routes by Gao-Rexford preference.
type RouteClass int8

// Route classes, from most to least preferred.
const (
	ClassNone RouteClass = iota // no route
	ClassProvider
	ClassPeer
	ClassCustomer
	ClassOwn // the AS originates the prefix
)

func (c RouteClass) String() string {
	switch c {
	case ClassOwn:
		return "own"
	case ClassCustomer:
		return "customer"
	case ClassPeer:
		return "peer"
	case ClassProvider:
		return "provider"
	default:
		return "none"
	}
}

// Route is the selected best route of one AS toward the propagated prefix.
type Route struct {
	Class   RouteClass
	Len     int32 // AS-path length in hops (0 at the origin)
	NextHop int32 // neighbor the route was learned from; -1 at the origin
	Flags   uint8 // union of origin flags over all routes tied for best
}

// Reachable reports whether the AS has any route.
func (r Route) Reachable() bool { return r.Class != ClassNone }

// Origin is one announcement source: the prefix is originated at AS with
// the given flag bit(s) set.
type Origin struct {
	AS   int
	Flag uint8
}

const unreached = int32(math.MaxInt32)

// PropagateInto computes every AS's best route toward a prefix announced
// by the given origins, under Gao-Rexford preferences and valley-free
// export, writing the result into dst (grown if too small) and returning
// it. The run borrows a pooled workspace, so a caller that reuses dst
// across calls propagates with zero allocations after warm-up.
func (t *Topology) PropagateInto(dst []Route, origins []Origin) []Route {
	if cap(dst) < t.n {
		dst = make([]Route, t.n)
	}
	dst = dst[:t.n]
	s := getScratch(t.n)
	s.run(t, origins)
	s.emitRoutes(dst)
	putScratch(s)
	return dst
}

// Propagate is PropagateInto with a freshly allocated result slice.
func (t *Topology) Propagate(origins []Origin) []Route {
	return t.PropagateInto(nil, origins)
}

// PropagateFrom is the common single-origin case.
func (t *Topology) PropagateFrom(origin int) []Route {
	return t.Propagate([]Origin{{AS: origin, Flag: 1}})
}

// Path reconstructs the AS-level path from AS `from` to the origin using
// the next-hop chain of a propagation result. Returns nil when unreachable.
func Path(routes []Route, from int) []int {
	if !routes[from].Reachable() {
		return nil
	}
	path := []int{from}
	cur := from
	for routes[cur].Class != ClassOwn {
		nh := int(routes[cur].NextHop)
		if nh < 0 || len(path) > len(routes)+1 {
			return nil // defensive: corrupt route state
		}
		path = append(path, nh)
		cur = nh
	}
	return path
}

// Flag bits for hijack experiments.
const (
	FlagVictim   uint8 = 1
	FlagAttacker uint8 = 2
)

// SimulateHijack propagates competing announcements of the same prefix:
// the victim's announcement is seeded at victimSeeds (the providers that
// receive the legitimate announcement) and the attacker's at attackerSeeds.
// The returned slice holds, per AS, the union of origin flags over its
// routes tied for best. The run emits only the flag bytes straight off the
// pooled workspace — the hijack sweeps of Fig. 7 never need full routes.
func (t *Topology) SimulateHijack(victimSeeds, attackerSeeds []int) []uint8 {
	origins := make([]Origin, 0, len(victimSeeds)+len(attackerSeeds))
	for _, s := range victimSeeds {
		origins = append(origins, Origin{AS: s, Flag: FlagVictim})
	}
	for _, s := range attackerSeeds {
		origins = append(origins, Origin{AS: s, Flag: FlagAttacker})
	}
	s := getScratch(t.n)
	s.run(t, origins)
	out := make([]uint8, t.n)
	s.emitFlags(out)
	putScratch(s)
	return out
}
