package netsim

import (
	"testing"

	"metascritic/internal/asgraph"
	"metascritic/internal/mat"
)

// testWorld generates a small world shared by the tests in this file.
func testWorld(t *testing.T) *World {
	t.Helper()
	return Generate(Config{Seed: 1, Metros: DefaultMetros(0.15)})
}

func TestGenerateDeterministic(t *testing.T) {
	w1 := Generate(Config{Seed: 42, Metros: DefaultMetros(0.1)})
	w2 := Generate(Config{Seed: 42, Metros: DefaultMetros(0.1)})
	if w1.G.N() != w2.G.N() {
		t.Fatalf("AS counts differ: %d vs %d", w1.G.N(), w2.G.N())
	}
	if len(w1.LinkMetros) != len(w2.LinkMetros) {
		t.Fatalf("link counts differ: %d vs %d", len(w1.LinkMetros), len(w2.LinkMetros))
	}
	for pr, ms := range w1.LinkMetros {
		ms2 := w2.LinkMetros[pr]
		if len(ms) != len(ms2) {
			t.Fatalf("pair %v metros differ", pr)
		}
	}
	w3 := Generate(Config{Seed: 43, Metros: DefaultMetros(0.1)})
	if len(w3.LinkMetros) == len(w1.LinkMetros) && w3.G.N() == w1.G.N() {
		// Different seeds should almost surely differ in some link.
		same := true
		for pr := range w1.LinkMetros {
			if _, ok := w3.LinkMetros[pr]; !ok {
				same = false
				break
			}
		}
		if same {
			t.Fatalf("different seeds produced identical topologies")
		}
	}
}

func TestGeographyBuilt(t *testing.T) {
	w := testWorld(t)
	if len(w.G.Metros) != len(DefaultMetros(0.15)) {
		t.Fatalf("metro count %d", len(w.G.Metros))
	}
	// NL appears once despite two NL metros.
	nl := 0
	for _, c := range w.G.Countries {
		if c.Code == "NL" {
			nl++
		}
	}
	if nl != 1 {
		t.Fatalf("NL countries = %d", nl)
	}
	ams := w.G.MetroOfName("Amsterdam")
	rot := w.G.MetroOfName("Rotterdam")
	if ams == nil || rot == nil || ams.Country != rot.Country {
		t.Fatalf("Amsterdam and Rotterdam should share a country")
	}
}

func TestEveryASHasProviderPathToTier1(t *testing.T) {
	w := testWorld(t)
	for _, a := range w.G.ASes {
		if a.Class == asgraph.Tier1 {
			continue
		}
		// Walk providers upward; must reach a Tier1 within N hops.
		seen := map[int]bool{}
		frontier := []int{a.Index}
		found := false
		for len(frontier) > 0 && !found {
			var next []int
			for _, x := range frontier {
				for _, p32 := range w.G.Providers[x] {
					p := int(p32)
					if seen[p] {
						continue
					}
					seen[p] = true
					if w.G.ASes[p].Class == asgraph.Tier1 {
						found = true
					}
					next = append(next, p)
				}
			}
			frontier = next
		}
		if !found {
			t.Fatalf("AS %d (%v) has no provider path to a Tier1", a.Index, a.Class)
		}
	}
}

func TestTier1FullMesh(t *testing.T) {
	w := testWorld(t)
	var t1 []int
	for _, a := range w.G.ASes {
		if a.Class == asgraph.Tier1 {
			t1 = append(t1, a.Index)
		}
	}
	if len(t1) < 2 {
		t.Fatalf("too few Tier1s: %d", len(t1))
	}
	for i := 0; i < len(t1); i++ {
		for j := i + 1; j < len(t1); j++ {
			if !w.G.HasPeer(t1[i], t1[j]) {
				t.Fatalf("Tier1 %d and %d not peered", t1[i], t1[j])
			}
		}
	}
}

func TestTruthMatricesSymmetricAndConsistent(t *testing.T) {
	w := testWorld(t)
	for mi, tr := range w.Truths {
		for i := 0; i < tr.M.N(); i++ {
			for _, j := range tr.M.RowView(i) {
				if !tr.M.Has(int(j), i) {
					t.Fatalf("truth matrix of metro %d not symmetric at (%d, %d)", mi, i, j)
				}
			}
		}
		if tr.M.N() != len(tr.Members) {
			t.Fatalf("metro %d matrix dim %d != members %d", mi, tr.M.N(), len(tr.Members))
		}
		for ai, row := range tr.Index {
			if tr.Members[row] != ai {
				t.Fatalf("metro %d index map inconsistent", mi)
			}
		}
		// Diagonal is zero: no self links.
		for i := 0; i < tr.M.N(); i++ {
			if tr.M.Has(i, i) {
				t.Fatalf("metro %d has self link at %d", mi, i)
			}
		}
	}
}

func TestLinkMetrosMatchTruth(t *testing.T) {
	w := testWorld(t)
	for pr, metros := range w.LinkMetros {
		for _, m := range metros {
			tr := w.Truths[m]
			_, okA := tr.Index[pr.A]
			_, okB := tr.Index[pr.B]
			if okA && okB && !tr.Has(pr.A, pr.B) {
				t.Fatalf("pair %v listed at metro %d but truth matrix disagrees", pr, m)
			}
		}
		if len(metros) == 0 {
			t.Fatalf("pair %v has empty metro list", pr)
		}
	}
}

func TestRouteServerPairsLinked(t *testing.T) {
	w := testWorld(t)
	// Count how many co-route-server pairs at an IXP are interconnected at
	// that IXP's metro; should be the vast majority.
	total, linked := 0, 0
	for _, ix := range w.G.IXPs {
		for i := 0; i < len(ix.Members); i++ {
			a := ix.Members[i]
			if !w.G.ASes[a].OnRouteServer(ix.Index) {
				continue
			}
			for j := i + 1; j < len(ix.Members); j++ {
				b := ix.Members[j]
				if !w.G.ASes[b].OnRouteServer(ix.Index) {
					continue
				}
				total++
				if w.Truths[ix.Metro].Has(a, b) {
					linked++
				}
			}
		}
	}
	if total == 0 {
		t.Skip("no route-server pairs in tiny world")
	}
	if frac := float64(linked) / float64(total); frac < 0.85 {
		t.Fatalf("route-server mesh fraction %.2f, want >= 0.85", frac)
	}
}

func TestOpenPolicyPeersMore(t *testing.T) {
	w := testWorld(t)
	degree := func(filter asgraph.PeeringPolicy) float64 {
		tot, n := 0, 0
		for _, a := range w.G.ASes {
			if a.Policy != filter || a.Class == asgraph.Tier1 {
				continue
			}
			tot += len(w.G.Peers[a.Index])
			n++
		}
		if n == 0 {
			return 0
		}
		return float64(tot) / float64(n)
	}
	open, restrictive := degree(asgraph.Open), degree(asgraph.Restrictive)
	if open <= restrictive {
		t.Fatalf("open ASes should peer more: open=%.1f restrictive=%.1f", open, restrictive)
	}
}

func TestMetroMatrixEffectivelyLowRank(t *testing.T) {
	// The central premise: T_m has effective rank well below its
	// dimension (the paper reports 3.7%-26%, avg 12.6% for IXP matrices
	// and ranks 26-59 for metros of 367-1574 ASes).
	w := Generate(Config{Seed: 3, Metros: DefaultMetros(0.3)})
	mi := w.G.MetroOfName("Amsterdam").Index
	tr := w.Truths[mi]
	n := tr.M.N()
	if n < 60 {
		t.Skip("metro too small for a meaningful rank test")
	}
	dense := mat.New(n, n)
	tr.M.Entries(func(i, j int) {
		dense.Set(i, j, 1)
		dense.Set(j, i, 1)
	})
	r := mat.EffectiveRank(dense, 0.05)
	if r == 0 {
		t.Fatalf("zero effective rank implies no links at all")
	}
	if float64(r) > 0.45*float64(n) {
		t.Fatalf("effective rank %d of %d not low-rank", r, n)
	}
}

func TestProbePlacementRespectsCoverage(t *testing.T) {
	w := testWorld(t)
	for mi, ms := range w.Cfg.Metros {
		members := w.G.Metros[mi].Members
		if len(members) == 0 {
			continue
		}
		n := 0
		for _, ai := range members {
			if w.HasProbe(ai) {
				n++
			}
		}
		frac := float64(n) / float64(len(members))
		// Coverage should be within a loose band of the target (overlap
		// with multi-metro ASes can push it above).
		if frac < ms.VPCoverage*0.4-0.05 {
			t.Fatalf("metro %s coverage %.2f far below target %.2f", ms.Name, frac, ms.VPCoverage)
		}
	}
	// Sao Paulo should have much poorer coverage than Amsterdam.
	cov := func(name string) float64 {
		m := w.G.MetroOfName(name)
		n := 0
		for _, ai := range m.Members {
			if w.HasProbe(ai) {
				n++
			}
		}
		return float64(n) / float64(len(m.Members))
	}
	if cov("SaoPaulo") >= cov("Amsterdam") {
		t.Fatalf("SaoPaulo coverage %.2f should be below Amsterdam %.2f", cov("SaoPaulo"), cov("Amsterdam"))
	}
}

func TestProbeInCone(t *testing.T) {
	w := testWorld(t)
	// Every probe AS trivially has a probe in its cone.
	for _, ai := range w.ProbeASes {
		if !w.ProbeInCone(ai) {
			t.Fatalf("probe AS %d not detected in own cone", ai)
		}
	}
}

func TestRelAndInterconnectAccessors(t *testing.T) {
	w := testWorld(t)
	for pr, rel := range w.Rel {
		r, ok := w.RelOf(pr.A, pr.B)
		if !ok || r != rel {
			t.Fatalf("RelOf(%v) = %v,%v", pr, r, ok)
		}
		if rel == asgraph.C2P {
			cust, prov := pr.A, pr.B
			if !w.CustomerIsA[pr] {
				cust, prov = prov, cust
			}
			if !w.G.HasProvider(cust, prov) {
				t.Fatalf("C2P pair %v inconsistent with graph", pr)
			}
		}
		if ms := w.InterconnectMetros(pr.A, pr.B); len(ms) == 0 {
			t.Fatalf("pair %v has no interconnect metros", pr)
		}
	}
	if _, ok := w.RelOf(0, 0); ok {
		t.Fatalf("self pair should not be related")
	}
}

func TestTransferabilityBand(t *testing.T) {
	// Appx. E.4: 42-65% of interconnections exist at all colocated
	// metros; 70-90% at half or more. Verify the generator lands near
	// that band for multi-metro pairs.
	w := Generate(Config{Seed: 5, Metros: DefaultMetros(0.3)})
	all, half, total := 0, 0, 0
	for pr, metros := range w.LinkMetros {
		if rel := w.Rel[pr]; rel != asgraph.P2P {
			continue
		}
		shared := w.G.SharedMetros(pr.A, pr.B)
		if len(shared) < 2 {
			continue
		}
		total++
		frac := float64(len(metros)) / float64(len(shared))
		if frac >= 1 {
			all++
		}
		if frac >= 0.5 {
			half++
		}
	}
	if total < 50 {
		t.Skip("not enough multi-metro pairs")
	}
	fa := float64(all) / float64(total)
	fh := float64(half) / float64(total)
	if fa < 0.3 || fa > 0.8 {
		t.Fatalf("all-locations fraction %.2f outside plausible band", fa)
	}
	if fh < 0.6 {
		t.Fatalf("half-locations fraction %.2f too low", fh)
	}
}

func TestFacilitiesPartitionMembers(t *testing.T) {
	w := testWorld(t)
	for mi, facs := range w.Facilities {
		seen := map[int]int{}
		for _, f := range facs {
			for _, ai := range f {
				seen[ai]++
			}
		}
		for _, ai := range w.G.Metros[mi].Members {
			if seen[ai] != 1 {
				t.Fatalf("metro %d AS %d in %d facilities", mi, ai, seen[ai])
			}
		}
	}
}

func TestPrimaryMetros(t *testing.T) {
	w := testWorld(t)
	p := w.PrimaryMetros()
	if len(p) != 6 {
		t.Fatalf("primary metros = %v", p)
	}
	names := map[string]bool{}
	for _, mi := range p {
		names[w.G.Metros[mi].Name] = true
	}
	for _, want := range []string{"Amsterdam", "NewYork", "SaoPaulo", "Singapore", "Sydney", "Tokyo"} {
		if !names[want] {
			t.Fatalf("missing primary metro %s", want)
		}
	}
}

func TestMakePairCanonical(t *testing.T) {
	if MakePair(5, 2) != (Pair{A: 2, B: 5}) || MakePair(2, 5) != (Pair{A: 2, B: 5}) {
		t.Fatalf("MakePair not canonical")
	}
}

func TestNumLinksAndSameFacility(t *testing.T) {
	w := testWorld(t)
	total := 0
	for mi, tr := range w.Truths {
		n := tr.NumLinks()
		total += n
		// NumLinks must equal the symmetric matrix's positive upper
		// triangle.
		cnt := 0
		for i := 0; i < tr.M.N(); i++ {
			for j := i + 1; j < tr.M.N(); j++ {
				if tr.M.Has(i, j) {
					cnt++
				}
			}
		}
		if cnt != n {
			t.Fatalf("metro %d NumLinks %d != counted %d", mi, n, cnt)
		}
	}
	if total == 0 {
		t.Fatalf("world has no links at all")
	}
	// SameFacility: members of the same facility report true; a member
	// and a non-member report false.
	for mi, facs := range w.Facilities {
		for _, f := range facs {
			if len(f) >= 2 {
				if !w.SameFacility(f[0], f[1], mi) {
					t.Fatalf("facility mates not colocated")
				}
			}
		}
		if len(facs) >= 2 && len(facs[0]) > 0 && len(facs[1]) > 0 {
			if w.SameFacility(facs[0][0], facs[1][0], mi) {
				t.Fatalf("different facilities reported colocated")
			}
		}
		break
	}
}
