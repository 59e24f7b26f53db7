package asgraph

import (
	"testing"
)

// tinyGraph builds a 6-AS graph:
//
//	0 (Tier1) ── provider of 1, 2
//	1 (Transit) ── provider of 3, 4
//	2 (Transit) ── provider of 4, 5
//	3, 4, 5 stubs; 1–2 peer; 3–5 peer
//
// Geography: metros 0 (AMS, NL, EU), 1 (ROT, NL, EU), 2 (NYC, US, NA),
// 3 (SYD, AU, OC).
func tinyGraph() *Graph {
	g := NewGraph()
	g.Continents = []string{"EU", "NA", "OC"}
	g.Countries = []Country{{"NL", 0}, {"US", 1}, {"AU", 2}}
	g.Metros = []*Metro{
		{Index: 0, Name: "Amsterdam", Country: 0},
		{Index: 1, Name: "Rotterdam", Country: 0},
		{Index: 2, Name: "NewYork", Country: 1},
		{Index: 3, Name: "Sydney", Country: 2},
	}
	metros := [][]int{{0, 1, 2, 3}, {0, 2}, {0, 1}, {0}, {2}, {0, 2}}
	classes := []Class{Tier1, Transit, Transit, Stub, Stub, Stub}
	for i := 0; i < 6; i++ {
		g.AddAS(&AS{
			ASN:    100 + i,
			Class:  classes[i],
			Metros: metros[i],
		})
	}
	g.AddC2P(1, 0)
	g.AddC2P(2, 0)
	g.AddC2P(3, 1)
	g.AddC2P(4, 1)
	g.AddC2P(4, 2)
	g.AddC2P(5, 2)
	g.AddPeer(1, 2)
	g.AddPeer(3, 5)
	return g
}

func TestAddASAssignsIndex(t *testing.T) {
	g := tinyGraph()
	if g.N() != 6 {
		t.Fatalf("N = %d", g.N())
	}
	for i, a := range g.ASes {
		if a.Index != i {
			t.Fatalf("AS %d has Index %d", i, a.Index)
		}
	}
}

func TestC2PIdempotent(t *testing.T) {
	g := tinyGraph()
	before := len(g.Providers[1])
	g.AddC2P(1, 0)
	if len(g.Providers[1]) != before {
		t.Fatalf("duplicate c2p link added")
	}
	if !g.HasProvider(1, 0) || g.HasProvider(0, 1) {
		t.Fatalf("HasProvider wrong")
	}
}

func TestPeerSymmetricIdempotent(t *testing.T) {
	g := tinyGraph()
	if !g.HasPeer(1, 2) || !g.HasPeer(2, 1) {
		t.Fatalf("peering should be symmetric")
	}
	n := len(g.Peers[1])
	g.AddPeer(2, 1)
	if len(g.Peers[1]) != n {
		t.Fatalf("duplicate peer added")
	}
}

func TestSelfLinkPanics(t *testing.T) {
	g := tinyGraph()
	for _, fn := range []func(){func() { g.AddC2P(1, 1) }, func() { g.AddPeer(2, 2) }} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic on self link")
				}
			}()
			fn()
		}()
	}
}

func TestCustomerCone(t *testing.T) {
	g := tinyGraph()
	cone0 := g.CustomerCone(0)
	if len(cone0) != 6 {
		t.Fatalf("Tier1 cone = %v, want all 6", cone0)
	}
	cone1 := g.CustomerCone(1)
	want1 := []int32{1, 3, 4}
	if len(cone1) != len(want1) {
		t.Fatalf("cone(1) = %v, want %v", cone1, want1)
	}
	for i := range want1 {
		if cone1[i] != want1[i] {
			t.Fatalf("cone(1) = %v, want %v", cone1, want1)
		}
	}
	if g.ConeSize(3) != 1 {
		t.Fatalf("stub cone size %d", g.ConeSize(3))
	}
	if !g.InCone(4, 1) || g.InCone(5, 1) {
		t.Fatalf("InCone wrong")
	}
}

func TestConeCacheInvalidation(t *testing.T) {
	g := tinyGraph()
	if g.ConeSize(2) != 3 { // {2,4,5}
		t.Fatalf("cone(2) size %d", g.ConeSize(2))
	}
	g.AddAS(&AS{ASN: 999, Class: Stub})
	g.AddC2P(6, 2)
	if g.ConeSize(2) != 4 {
		t.Fatalf("cone(2) after new customer = %d, want 4", g.ConeSize(2))
	}
}

func TestGeoScopes(t *testing.T) {
	g := tinyGraph()
	cases := []struct {
		a, b int
		want GeoScope
	}{
		{0, 0, SameMetro},
		{0, 1, SameCountry},
		{0, 2, Elsewhere}, // NL/EU vs US/NA: different continents
		{0, 3, Elsewhere},
	}
	for _, c := range cases {
		if got := g.ScopeOfMetros(c.a, c.b); got != c.want {
			t.Fatalf("ScopeOfMetros(%d,%d) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
	// Same-continent case: add a second US metro sharing continent NA.
	g.Countries = append(g.Countries, Country{"CA", 1})
	g.Metros = append(g.Metros, &Metro{Index: 4, Name: "Toronto", Country: 3})
	if got := g.ScopeOfMetros(2, 4); got != SameContinent {
		t.Fatalf("NYC vs Toronto scope = %v, want SameContinent", got)
	}
}

func TestSharedMetrosAndHasMetro(t *testing.T) {
	g := tinyGraph()
	sm := g.SharedMetros(1, 5) // {0,2} ∩ {0,2} = {0,2}
	if len(sm) != 2 || sm[0] != 0 || sm[1] != 2 {
		t.Fatalf("SharedMetros = %v", sm)
	}
	if !g.ASes[1].HasMetro(2) || g.ASes[1].HasMetro(3) {
		t.Fatalf("HasMetro wrong")
	}
}

func TestSharedIXPs(t *testing.T) {
	g := tinyGraph()
	g.IXPs = []*IXP{{Index: 0, Name: "AMS-IX", Metro: 0, HasRouteServer: true}}
	g.ASes[1].IXPs = []int{0}
	g.ASes[2].IXPs = []int{0}
	if got := g.SharedIXPs(1, 2); len(got) != 1 || got[0] != 0 {
		t.Fatalf("SharedIXPs = %v", got)
	}
	if got := g.SharedIXPs(1, 3); len(got) != 0 {
		t.Fatalf("SharedIXPs = %v, want empty", got)
	}
}

func TestMetroOfName(t *testing.T) {
	g := tinyGraph()
	if m := g.MetroOfName("Sydney"); m == nil || m.Index != 3 {
		t.Fatalf("MetroOfName Sydney = %+v", m)
	}
	if m := g.MetroOfName("Nowhere"); m != nil {
		t.Fatalf("MetroOfName Nowhere should be nil")
	}
}

func TestStringers(t *testing.T) {
	if Tier1.String() != "Tier1" || Stub.String() != "Stub" {
		t.Fatalf("Class stringer")
	}
	if Open.String() != "Open" || Restrictive.String() != "Restrictive" {
		t.Fatalf("Policy stringer")
	}
	if HeavyInbound.String() != "HeavyInbound" {
		t.Fatalf("Traffic stringer")
	}
	if SameMetro.String() != "SameMetro" || Elsewhere.String() != "Elsewhere" {
		t.Fatalf("Scope stringer")
	}
	if Class(99).String() != "Class(99)" {
		t.Fatalf("out-of-range Class stringer")
	}
}
