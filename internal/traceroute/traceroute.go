// Package traceroute simulates RIPE-Atlas-style traceroute measurements
// over the synthetic Internet. A traceroute from a vantage point follows
// the Gao-Rexford best AS path toward the target; at every inter-AS
// crossing the engine chooses the metro where the crossing physically
// happens using hot-potato (nearest-exit) routing, with destination-
// dependent deviations for ASes flagged as having inconsistent routing
// policies (§3.4). Hops are emitted as interface addresses that the ipmap
// registry can resolve back — with its own error model — exactly like the
// real pipeline maps hops with bdrmapit and geolocation.
package traceroute

import (
	"sync"
	"sync/atomic"

	"metascritic/internal/asgraph"
	"metascritic/internal/bgp"
	"metascritic/internal/ipmap"
	"metascritic/internal/netsim"
)

// Hop is one traceroute hop: an interface address, or a star when the
// router did not answer.
type Hop struct {
	Addr       ipmap.Addr
	Responsive bool
}

// Trace is the result of one traceroute measurement.
type Trace struct {
	VPAS    int // AS hosting the probe
	VPMetro int // probe location
	DstAS   int
	DstAddr ipmap.Addr
	Hops    []Hop
	// Reached reports whether the destination answered.
	Reached bool
}

// Engine executes traceroutes against a world. It also counts measurements
// so callers can enforce probing budgets (the paper's RIPE Atlas rate
// limits). An Engine is safe for concurrent use: traces are pure functions
// of (vp, target) and the issued counter is atomic, so concurrent metro
// runs can share one engine and observe identical hop sequences.
type Engine struct {
	W   *netsim.World
	Reg *ipmap.Registry
	// Cache propagates routes over the full true topology (the packets
	// travel over the real Internet regardless of what we know about it).
	Cache *bgp.RouteCache
	// HopLossRate is the per-hop probability of a silent router in an
	// otherwise responsive AS (deterministic per (addr, dst)).
	HopLossRate float64
	// issued counts traceroutes run so far (updated atomically).
	issued atomic.Int64
}

// Issued returns the number of traceroutes run so far.
func (e *Engine) Issued() int { return int(e.issued.Load()) }

// traceScratch holds one traceroute's working buffers: the best-path walk,
// the provider-detour walk and its spliced result, and the hop
// accumulator. RunTarget builds hops here and copies them out exact-size,
// since callers (the evidence log) retain Trace.Hops indefinitely; the
// path buffers never escape. Pooled because the Engine is shared by
// concurrent metro runs.
type traceScratch struct {
	path, alt, det []int
	hops           []Hop
}

var tracePool = sync.Pool{New: func() any { return new(traceScratch) }}

// NewEngine builds an engine over w with a fresh registry and route cache.
func NewEngine(w *netsim.World) *Engine {
	return &Engine{
		W:           w,
		Reg:         ipmap.NewRegistry(w),
		Cache:       bgp.NewRouteCache(bgp.FromGraph(w.G)),
		HopLossRate: 0.1,
	}
}

// Run issues one traceroute from a probe in vpAS at vpMetro toward an
// address of dstAS near the probe.
func (e *Engine) Run(vpAS, vpMetro, dstAS int) Trace {
	return e.RunTarget(vpAS, vpMetro, dstAS, vpMetro)
}

// RunTarget issues one traceroute toward a specific target address: the
// one dstAS announces at dstMetro (or its closest presence).
func (e *Engine) RunTarget(vpAS, vpMetro, dstAS, dstMetro int) Trace {
	e.issued.Add(1)
	tr := Trace{VPAS: vpAS, VPMetro: vpMetro, DstAS: dstAS}
	tr.DstAddr = e.Reg.TargetAddr(dstAS, dstMetro)
	// flow distinguishes targets in the same AS at different metros, so
	// per-destination routing decisions can differ across targets.
	flow := dstAS*97 + dstMetro
	if vpAS == dstAS {
		tr.Reached = e.W.Responsive[dstAS]
		tr.Hops = []Hop{e.hop(e.Reg.InterfaceFor(vpAS, vpMetro), flow)}
		return tr
	}
	routes := e.Cache.RoutesTo(dstAS)
	sc := tracePool.Get().(*traceScratch)
	defer tracePool.Put(sc)
	sc.path = routes.AppendPathFrom(sc.path[:0], vpAS)
	path := sc.path
	if len(path) == 0 {
		return tr // no route: empty traceroute
	}
	path = e.maybeDetour(path, routes, flow, sc)
	cur := vpMetro
	hops := sc.hops[:0]
	// First hop: inside the VP's AS at its own metro.
	hops = append(hops, e.hop(e.Reg.InterfaceFor(vpAS, cur), flow))
	for i := 0; i+1 < len(path); i++ {
		x, y := path[i], path[i+1]
		m := e.crossingMetro(x, y, flow, cur)
		// Egress border of x at the crossing metro (if it differs from
		// where we currently are inside x, the packet moved intradomain).
		if m != cur {
			hops = append(hops, e.hop(e.Reg.InterfaceFor(x, m), flow))
		}
		// Ingress of y: an IXP LAN address when the crossing rides a
		// shared IXP fabric at m, else y's interface at m.
		in := e.ingressAddr(x, y, m, flow)
		hops = append(hops, e.hop(in, flow))
		cur = m
	}
	sc.hops = hops
	tr.Hops = make([]Hop, len(hops))
	copy(tr.Hops, hops)
	tr.Reached = e.W.Responsive[dstAS]
	if !tr.Reached && len(tr.Hops) > 0 {
		// The destination network swallows probes: its final hop is lost.
		tr.Hops[len(tr.Hops)-1].Responsive = false
	}
	return tr
}

// SilentIfaceRate is the fraction of router interfaces that never emit
// TTL-exceeded responses (deterministic per address). Destination
// responsiveness is a separate, per-AS property (World.Responsive): an AS
// whose addresses don't answer probes still exposes its transit routers.
const SilentIfaceRate = 0.12

// DetourRate is the probability that an inconsistent-routing AS sends a
// given flow via a transit provider even though its best route uses a
// direct peering link — the traffic-engineering behavior (local-pref
// overrides, selective announcements) that makes naive non-existence
// inference dangerous (§3.4) and that the consistency machinery of
// Appx. D.5 exists to catch.
const DetourRate = 0.25

// maybeDetour rewrites the first hop of a path for inconsistent source
// ASes: with probability DetourRate per flow, a peer-link first hop is
// replaced by a provider detour (when the provider has a loop-free route).
// With a non-nil scratch the detour is built in sc.det (valid until the
// next use of sc); with nil it is freshly allocated for callers that
// return it (EffectivePath).
func (e *Engine) maybeDetour(path []int, routes bgp.Routes, flow int, sc *traceScratch) []int {
	if len(path) < 2 {
		return path
	}
	x, y := path[0], path[1]
	if e.W.G.ASes[x].ConsistentRouting {
		return path
	}
	if rel, ok := e.W.RelOf(x, y); !ok || rel != asgraph.P2P {
		return path
	}
	if ipmap.Hash01From(ipmap.Hash3(x, flow, 0xde70)) >= DetourRate {
		return path
	}
	provs := e.W.G.Providers[x]
	if len(provs) == 0 {
		return path
	}
	p := int(provs[int(ipmap.Hash3(flow, x, 0x11))%len(provs)])
	var alt []int
	if sc != nil {
		sc.alt = routes.AppendPathFrom(sc.alt[:0], p)
		alt = sc.alt
	} else {
		alt = routes.PathFrom(p)
	}
	if len(alt) == 0 {
		return path
	}
	for _, as := range alt {
		if as == x {
			return path // provider routes back through us: no detour
		}
	}
	if sc != nil {
		sc.det = append(append(sc.det[:0], x), alt...)
		return sc.det
	}
	return append([]int{x}, alt...)
}

// hop wraps an address with its responsiveness decision.
func (e *Engine) hop(addr ipmap.Addr, dst int) Hop {
	if addr == 0 {
		return Hop{Responsive: false}
	}
	if _, ok := e.Reg.TrueInfo(addr); !ok {
		return Hop{Addr: addr, Responsive: false}
	}
	// Permanently silent interface.
	if ipmap.Hash01From(ipmap.Hash2(int(addr), 0x51e27)) < SilentIfaceRate {
		return Hop{Addr: addr, Responsive: false}
	}
	// Per-flow loss.
	if ipmap.Hash01From(ipmap.Hash3(int(addr), dst, 0x5151)) < e.HopLossRate {
		return Hop{Addr: addr, Responsive: false}
	}
	return Hop{Addr: addr, Responsive: true}
}

// crossingMetro picks the metro where the x→y crossing happens for packets
// heading to dst, given the packet currently sits at metro cur inside x.
//
// Consistent-routing ASes always use the interconnection closest to cur
// (hot potato), breaking ties on the lowest metro index. Inconsistent ASes
// (CDNs, clouds, big transits) pick per-destination among the candidates,
// biased toward closer ones — so different targets expose different
// crossings, which is exactly what breaks naive non-existence inference.
func (e *Engine) crossingMetro(x, y, dst, cur int) int {
	cands := e.W.InterconnectMetros(x, y)
	if len(cands) == 0 {
		return cur // should not happen for adjacent ASes; stay put
	}
	if len(cands) == 1 {
		return cands[0]
	}
	best := cands[0]
	bestScope := e.W.G.ScopeOfMetros(cur, best)
	for _, m := range cands[1:] {
		s := e.W.G.ScopeOfMetros(cur, m)
		if s < bestScope || (s == bestScope && m < best) {
			best, bestScope = m, s
		}
	}
	if e.W.G.ASes[x].ConsistentRouting {
		return best
	}
	// Inconsistent: 55% hot-potato, else a per-destination deterministic
	// alternative.
	h := ipmap.Hash3(x, y, dst)
	if ipmap.Hash01From(h) < 0.55 {
		return best
	}
	return cands[int(ipmap.Hash3(dst, y, x))%len(cands)]
}

// ingressAddr returns the address the packet enters y through at metro m:
// the IXP LAN address when both sides share an IXP there and the flow
// hashes onto the fabric, else y's interface at m.
func (e *Engine) ingressAddr(x, y, m, dst int) ipmap.Addr {
	for _, ix := range e.W.G.SharedIXPs(x, y) {
		if e.W.G.IXPs[ix].Metro != m {
			continue
		}
		if ipmap.Hash01From(ipmap.Hash3(x^y, ix, 0x1b9)) < 0.6 {
			if a := e.Reg.IXPAddrFor(ix, y); a != 0 {
				return a
			}
		}
	}
	return e.Reg.InterfaceFor(y, m)
}

// ASPath returns the Gao-Rexford best AS-level path from src to dst
// (ground truth; the inference pipeline sees only hops).
func (e *Engine) ASPath(src, dst int) []int {
	return e.Cache.RoutesTo(dst).PathFrom(src)
}

// EffectivePath returns the AS-level path a traceroute toward the given
// target actually follows, including any traffic-engineering detour.
func (e *Engine) EffectivePath(src, dst, dstMetro int) []int {
	routes := e.Cache.RoutesTo(dst)
	path := routes.PathFrom(src)
	if path == nil {
		return nil
	}
	return e.maybeDetour(path, routes, dst*97+dstMetro, nil)
}

// CrossingOf exposes the engine's crossing decision for ground-truth
// bookkeeping in evaluations (never used by inference).
func (e *Engine) CrossingOf(x, y, dst, cur int) int { return e.crossingMetro(x, y, dst, cur) }
