package bgp

import (
	"math/rand"
	"testing"

	"metascritic/internal/asgraph"
)

// chainTopology builds:
//
//	T1a(0) ── T1b(1)   (peers)
//	 |          |
//	 Ta(2)     Tb(3)   (transits, customers of T1s; Ta–Tb peer)
//	 |          |
//	 Sa(4)     Sb(5)   (stubs)
//	 Sa(4) ─── Sc(6)   (6 is customer of 4)
func chainTopology() *Topology {
	t := NewTopology(7)
	t.AddP2P(0, 1)
	t.AddC2P(2, 0)
	t.AddC2P(3, 1)
	t.AddP2P(2, 3)
	t.AddC2P(4, 2)
	t.AddC2P(5, 3)
	t.AddC2P(6, 4)
	return t
}

func TestPropagateClasses(t *testing.T) {
	top := chainTopology()
	routes := top.PropagateFrom(5) // stub Sb originates
	if routes[5].Class != ClassOwn || routes[5].Len != 0 {
		t.Fatalf("origin route %+v", routes[5])
	}
	// Tb learns from customer.
	if routes[3].Class != ClassCustomer || routes[3].Len != 1 {
		t.Fatalf("Tb route %+v", routes[3])
	}
	// T1b: customer route via Tb (len 2).
	if routes[1].Class != ClassCustomer || routes[1].Len != 2 {
		t.Fatalf("T1b route %+v", routes[1])
	}
	// Ta: peer route via Tb (Tb exports its customer route to peers).
	if routes[2].Class != ClassPeer || routes[2].Len != 2 {
		t.Fatalf("Ta route %+v", routes[2])
	}
	// T1a: peer route via T1b, len 3.
	if routes[0].Class != ClassPeer || routes[0].Len != 3 {
		t.Fatalf("T1a route %+v", routes[0])
	}
	// Sa: provider route via Ta (Ta exports its peer route to customers).
	if routes[4].Class != ClassProvider || routes[4].Len != 3 {
		t.Fatalf("Sa route %+v", routes[4])
	}
	// Sc: provider route via Sa, one more hop.
	if routes[6].Class != ClassProvider || routes[6].Len != 4 {
		t.Fatalf("Sc route %+v", routes[6])
	}
}

func TestCustomerPreferredOverShorterPeer(t *testing.T) {
	// AS 0 has: customer route of length 3 and a peer route of length 1.
	// Gao-Rexford must still select the customer route.
	top := NewTopology(5)
	// Customer chain: 0 <- 1 <- 2 <- 3 (3 originates; 3 cust of 2 cust of 1 cust of 0)
	top.AddC2P(3, 2)
	top.AddC2P(2, 1)
	top.AddC2P(1, 0)
	// Peer shortcut: 0 peers with 4, 3 is customer of 4.
	top.AddC2P(3, 4)
	top.AddP2P(0, 4)
	routes := top.PropagateFrom(3)
	if routes[0].Class != ClassCustomer || routes[0].Len != 3 {
		t.Fatalf("AS0 should prefer its customer route: %+v", routes[0])
	}
}

func TestValleyFree(t *testing.T) {
	// Peer routes must not be exported to peers or providers:
	//  origin 0 —peer— 1 —peer— 2: AS2 must NOT reach 0 via 1.
	top := NewTopology(3)
	top.AddP2P(0, 1)
	top.AddP2P(1, 2)
	routes := top.PropagateFrom(0)
	if routes[1].Class != ClassPeer {
		t.Fatalf("AS1 %+v", routes[1])
	}
	if routes[2].Reachable() {
		t.Fatalf("AS2 should be unreachable (valley-free), got %+v", routes[2])
	}
	// Provider routes must not be exported upward: 0 provider of 1,
	// 1 provider of... make 1 learn from provider 0 and check 1's other
	// provider 2 does not learn it.
	top2 := NewTopology(3)
	top2.AddC2P(1, 0)
	top2.AddC2P(1, 2)
	routes2 := top2.PropagateFrom(0)
	if routes2[1].Class != ClassProvider {
		t.Fatalf("AS1 %+v", routes2[1])
	}
	if routes2[2].Reachable() {
		t.Fatalf("AS2 should not learn a provider route from its customer's provider, got %+v", routes2[2])
	}
}

func TestPathReconstruction(t *testing.T) {
	top := chainTopology()
	routes := top.PropagateFrom(5)
	p := Path(routes, 6)
	want := []int{6, 4, 2, 3, 5}
	if len(p) != len(want) {
		t.Fatalf("path %v, want %v", p, want)
	}
	for i := range want {
		if p[i] != want[i] {
			t.Fatalf("path %v, want %v", p, want)
		}
	}
	// Path length matches route length.
	if int(routes[6].Len) != len(p)-1 {
		t.Fatalf("route len %d vs path %v", routes[6].Len, p)
	}
	// Unreachable source.
	iso := NewTopology(2)
	r := iso.PropagateFrom(0)
	if Path(r, 1) != nil {
		t.Fatalf("unreachable path should be nil")
	}
}

func TestPathLengthsConsistentProperty(t *testing.T) {
	// Random topologies: every reachable AS's path reconstruction length
	// equals its route length, and paths end at the origin.
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 30
		top := NewTopology(n)
		// Random DAG-ish hierarchy: AS i buys from 1-2 lower-numbered ASes.
		for i := 1; i < n; i++ {
			for k := 0; k < 1+rng.Intn(2); k++ {
				top.AddC2P(i, rng.Intn(i))
			}
		}
		// Random peering.
		for k := 0; k < n; k++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if a != b {
				top.AddP2P(a, b)
			}
		}
		dest := rng.Intn(n)
		routes := top.PropagateFrom(dest)
		for a := 0; a < n; a++ {
			if !routes[a].Reachable() {
				continue
			}
			p := Path(routes, a)
			if p == nil {
				t.Fatalf("seed %d: AS %d reachable but no path", seed, a)
			}
			if len(p)-1 != int(routes[a].Len) {
				t.Fatalf("seed %d: AS %d path len %d != route len %d", seed, a, len(p)-1, routes[a].Len)
			}
			if p[len(p)-1] != dest {
				t.Fatalf("seed %d: path does not end at origin: %v", seed, p)
			}
		}
		// The origin's providers always have a customer route.
		for _, pr := range top.providers[dest] {
			if routes[pr].Class != ClassCustomer && routes[pr].Class != ClassOwn {
				t.Fatalf("seed %d: origin's provider class %v", seed, routes[pr].Class)
			}
		}
	}
}

func TestMultiOriginFlags(t *testing.T) {
	// Victim at 4 (customer of 2), attacker at 5 (customer of 3).
	top := chainTopology()
	flags := top.SimulateHijack([]int{4}, []int{5})
	if flags[4]&FlagVictim == 0 {
		t.Fatalf("victim seed lacks victim flag: %b", flags[4])
	}
	if flags[5]&FlagAttacker == 0 {
		t.Fatalf("attacker seed lacks attacker flag: %b", flags[5])
	}
	// Ta (2) hears victim via customer 4 (len 1, customer class) and the
	// attacker only via peer: customer wins.
	if flags[2] != FlagVictim {
		t.Fatalf("Ta flags %b, want victim only", flags[2])
	}
	if flags[3] != FlagAttacker {
		t.Fatalf("Tb flags %b, want attacker only", flags[3])
	}
}

func TestTiedRoutesMergeFlags(t *testing.T) {
	// AS 0 is provider of both 1 and 2; victim seeds at 1, attacker at 2.
	// AS 0 has two customer routes of length 1, tied: flags must merge.
	top := NewTopology(3)
	top.AddC2P(1, 0)
	top.AddC2P(2, 0)
	flags := top.SimulateHijack([]int{1}, []int{2})
	if flags[0] != FlagVictim|FlagAttacker {
		t.Fatalf("AS0 flags %b, want both", flags[0])
	}
}

func TestVisibleLinksBias(t *testing.T) {
	// Peering link between stubs 4-6's providers is invisible to a
	// monitor outside their cones.
	top := NewTopology(6)
	// 0 Tier1; 1, 2 transits (customers of 0); 3, 4 stubs.
	top.AddC2P(1, 0)
	top.AddC2P(2, 0)
	top.AddC2P(3, 1)
	top.AddC2P(4, 2)
	top.AddP2P(3, 4) // edge peering, invisible from the core
	top.AddC2P(5, 0) // monitor AS: another customer of the Tier1
	cache := NewRouteCache(top)
	dests := []int{0, 1, 2, 3, 4, 5}
	visFromCore := VisibleLinks(cache, []int{5}, dests)
	if visFromCore[asgraph.MakePair(3, 4)] {
		t.Fatalf("edge peering should be invisible from core monitor")
	}
	// A monitor inside one of the peers sees it.
	visFromEdge := VisibleLinks(NewRouteCache(top), []int{3}, dests)
	if !visFromEdge[asgraph.MakePair(3, 4)] {
		t.Fatalf("edge peering should be visible from the peer itself")
	}
	// Transit links on used paths are visible.
	if !visFromCore[asgraph.MakePair(0, 1)] {
		t.Fatalf("core transit link should be visible")
	}
}

func TestRouteCacheMemoizes(t *testing.T) {
	top := chainTopology()
	c := NewRouteCache(top)
	r1 := c.RoutesTo(5)
	r2 := c.RoutesTo(5)
	if &r1.class[0] != &r2.class[0] {
		t.Fatalf("cache should return the same packed view")
	}
	if got := c.Computed(); got != 1 {
		t.Fatalf("Computed = %d, want 1", got)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Computed != 1 || st.Entries != 1 {
		t.Fatalf("stats %+v, want 1 hit / 1 computed / 1 entry", st)
	}
	// Byte accounting charges the packed arrays plus the per-entry
	// bookkeeping (map bucket, entry struct, clock slot) so the eviction
	// budget reflects real footprint.
	if want := int64(r1.Bytes()) + entryOverheadBytes; st.Bytes != want {
		t.Fatalf("stats bytes %d, want %d", st.Bytes, want)
	}
	if c.Topology() != top {
		t.Fatalf("Topology accessor wrong")
	}
}

func TestFromGraph(t *testing.T) {
	g := asgraph.NewGraph()
	for i := 0; i < 3; i++ {
		g.AddAS(&asgraph.AS{ASN: i})
	}
	g.AddC2P(1, 0)
	g.AddPeer(1, 2)
	top := FromGraph(g)
	routes := top.PropagateFrom(0)
	if routes[1].Class != ClassProvider {
		t.Fatalf("AS1 should reach 0 via provider, got %+v", routes[1])
	}
	if routes[2].Reachable() {
		t.Fatalf("AS2 should not reach 0 through peer's provider route")
	}
	if !top.HasP2P(1, 2) || top.HasP2P(0, 1) {
		t.Fatalf("FromGraph peering wrong")
	}
}
