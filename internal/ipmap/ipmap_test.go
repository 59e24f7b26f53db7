package ipmap

import (
	"math/rand"
	"testing"

	"metascritic/internal/netsim"
)

func testRegistry(t *testing.T) (*netsim.World, *Registry) {
	t.Helper()
	w := netsim.Generate(netsim.Config{Seed: 2, Metros: netsim.DefaultMetros(0.1)})
	return w, NewRegistry(w)
}

func TestInterfaceAllocationAndResolve(t *testing.T) {
	w, r := testRegistry(t)
	r.ErrorRate = 0 // exact resolution for this test
	for _, a := range w.G.ASes {
		for _, m := range a.Metros {
			addr := r.InterfaceFor(a.Index, m)
			if addr == 0 {
				t.Fatalf("AS %d metro %d has no interface", a.Index, m)
			}
			inf, ok := r.Resolve(addr)
			if !ok {
				t.Fatalf("unresolvable address %v", addr)
			}
			if inf.AS != a.Index || inf.Metro != m || inf.IXP != -1 {
				t.Fatalf("Resolve(%v) = %+v, want AS %d metro %d", addr, inf, a.Index, m)
			}
		}
	}
}

func TestAddressesUnique(t *testing.T) {
	_, r := testRegistry(t)
	seen := map[Addr]bool{}
	for _, a := range r.ifaceAddr {
		if seen[a] {
			t.Fatalf("duplicate interface address %v", a)
		}
		seen[a] = true
	}
	for _, a := range r.ixpAddr {
		if seen[a] {
			t.Fatalf("duplicate IXP address %v", a)
		}
		seen[a] = true
	}
}

func TestIXPAddresses(t *testing.T) {
	w, r := testRegistry(t)
	found := false
	for _, ix := range w.G.IXPs {
		for _, member := range ix.Members {
			addr := r.IXPAddrFor(ix.Index, member)
			if addr == 0 {
				t.Fatalf("member %d of IXP %d has no LAN address", member, ix.Index)
			}
			inf, ok := r.Resolve(addr)
			if !ok || inf.IXP != ix.Index || inf.AS != member || inf.Metro != ix.Metro {
				t.Fatalf("IXP resolve %+v for ixp %d member %d", inf, ix.Index, member)
			}
			found = true
		}
	}
	if !found {
		t.Skip("no IXP members in tiny world")
	}
	if r.IXPAddrFor(0, -1) != 0 {
		t.Fatalf("non-member should get zero address")
	}
}

func TestInterfaceForFallsBackToClosestPresence(t *testing.T) {
	w, r := testRegistry(t)
	// Find an AS absent from some metro.
	for _, a := range w.G.ASes {
		if len(a.Metros) == len(w.G.Metros) {
			continue
		}
		var missing int = -1
		present := map[int]bool{}
		for _, m := range a.Metros {
			present[m] = true
		}
		for m := range w.G.Metros {
			if !present[m] {
				missing = m
				break
			}
		}
		addr := r.InterfaceFor(a.Index, missing)
		if addr == 0 {
			t.Fatalf("fallback returned zero address")
		}
		inf, _ := r.TrueInfo(addr)
		if inf.AS != a.Index {
			t.Fatalf("fallback resolved to wrong AS")
		}
		if !present[inf.Metro] {
			t.Fatalf("fallback metro %d not in footprint", inf.Metro)
		}
		return
	}
	t.Skip("every AS is global in this world")
}

func TestTargetAddr(t *testing.T) {
	w, r := testRegistry(t)
	a := w.G.ASes[len(w.G.ASes)-1]
	addr := r.TargetAddr(a.Index, a.Metros[0])
	inf, ok := r.TrueInfo(addr)
	if !ok || inf.AS != a.Index || inf.Metro != a.Metros[0] {
		t.Fatalf("TargetAddr resolve %+v", inf)
	}
}

func TestResolveErrorRateDeterministicAndBounded(t *testing.T) {
	w, r := testRegistry(t)
	r.ErrorRate = 0.05
	wrong, total := 0, 0
	for _, a := range w.G.ASes {
		for _, m := range a.Metros {
			addr := r.InterfaceFor(a.Index, m)
			inf1, _ := r.Resolve(addr)
			inf2, _ := r.Resolve(addr)
			if inf1 != inf2 {
				t.Fatalf("Resolve not deterministic for %v", addr)
			}
			truth, _ := r.TrueInfo(addr)
			if inf1.AS != truth.AS {
				t.Fatalf("error model must not change the AS")
			}
			total++
			if inf1.Metro != truth.Metro {
				wrong++
				// Mislocated metro must still be in the AS footprint.
				if !w.G.ASes[a.Index].HasMetro(inf1.Metro) {
					t.Fatalf("mislocated outside footprint")
				}
			}
		}
	}
	rate := float64(wrong) / float64(total)
	if rate > 0.12 {
		t.Fatalf("error rate %.3f too high for nominal 0.05", rate)
	}
}

func TestResolveUnknown(t *testing.T) {
	_, r := testRegistry(t)
	if _, ok := r.Resolve(Addr(0xdeadbeef)); ok {
		t.Fatalf("unknown address should not resolve")
	}
	if _, ok := r.TrueInfo(Addr(1)); ok {
		t.Fatalf("address 1 should not exist")
	}
}

func TestAddrString(t *testing.T) {
	if s := Addr(0x0a000001).String(); s != "10.0.0.1" {
		t.Fatalf("Addr string %q", s)
	}
}

func TestHashHelpers(t *testing.T) {
	if Hash2(1, 2) == Hash2(2, 1) {
		t.Fatalf("Hash2 should be order-sensitive")
	}
	if Hash2(1, 2) != Hash2(1, 2) || Hash3(1, 2, 3) != Hash3(1, 2, 3) {
		t.Fatalf("hashes must be deterministic")
	}
	if Hash3(1, 2, 3) == Hash3(1, 2, 4) {
		t.Fatalf("Hash3 should depend on the third argument")
	}
	v := Hash01From(Hash2(5, 9))
	if v < 0 || v >= 1 {
		t.Fatalf("Hash01From out of range: %v", v)
	}
	// Rough uniformity sanity check.
	n, below := 10000, 0
	for i := 0; i < n; i++ {
		if Hash01From(Hash2(i, 77)) < 0.5 {
			below++
		}
	}
	if below < 4500 || below > 5500 {
		t.Fatalf("hash distribution skewed: %d/10000 below 0.5", below)
	}
}

// TestExtendAfterEvolve pins the streaming contract: after a churn batch
// adds ASes and IXP memberships, Extend allocates exactly the missing
// blocks, keeps every pre-existing assignment byte-identical, and the
// extension is deterministic (a replica world extends to the same plan).
func TestExtendAfterEvolve(t *testing.T) {
	mkWorld := func() *netsim.World {
		return netsim.Generate(netsim.Config{Seed: 2, Metros: netsim.DefaultMetros(0.1)})
	}
	w := mkWorld()
	r := NewRegistry(w)
	before := map[[2]int]Addr{}
	for k, a := range r.ifaceAddr {
		before[k] = a
	}
	spec := netsim.EvolveSpec{LinkDowns: 5, LinkUps: 5, NewASes: 3, IXPJoins: 4}
	batch, err := w.Evolve(rand.New(rand.NewSource(6)), spec)
	if err != nil {
		t.Fatalf("Evolve: %v", err)
	}
	added := r.Extend()
	if added == 0 {
		t.Fatal("Extend allocated nothing after arrivals and IXP joins")
	}
	for k, a := range before {
		if r.ifaceAddr[k] != a {
			t.Fatalf("existing assignment %v changed: %v -> %v", k, a, r.ifaceAddr[k])
		}
	}
	for _, a := range w.G.ASes {
		for _, m := range a.Metros {
			if _, ok := r.ifaceAddr[[2]int{a.Index, m}]; !ok {
				t.Fatalf("AS %d metro %d unaddressed after Extend", a.Index, m)
			}
		}
	}
	if r.Extend() != 0 {
		t.Fatal("second Extend allocated more addresses")
	}

	// A replica applying the same batch extends to the identical plan.
	w2 := mkWorld()
	r2 := NewRegistry(w2)
	if err := w2.Apply(batch); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	r2.Extend()
	if len(r2.ifaceAddr) != len(r.ifaceAddr) || len(r2.ixpAddr) != len(r.ixpAddr) {
		t.Fatalf("replica plan sizes differ: %d/%d vs %d/%d",
			len(r2.ifaceAddr), len(r2.ixpAddr), len(r.ifaceAddr), len(r.ixpAddr))
	}
	for k, a := range r.ifaceAddr {
		if r2.ifaceAddr[k] != a {
			t.Fatalf("replica interface %v = %v, want %v", k, r2.ifaceAddr[k], a)
		}
	}
	for k, a := range r.ixpAddr {
		if r2.ixpAddr[k] != a {
			t.Fatalf("replica IXP addr %v = %v, want %v", k, r2.ixpAddr[k], a)
		}
	}
}
