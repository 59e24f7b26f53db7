package netsim

import (
	"testing"
	"testing/quick"

	"metascritic/internal/asgraph"
)

// Property: across random seeds, structural invariants of generated worlds
// hold — symmetric truth matrices with zero diagonals, link metros within
// shared footprints (or the customer's home metro for long-haul transit),
// relationships consistent with the graph, and IXP members present at the
// IXP's metro.
func TestWorldInvariantsProperty(t *testing.T) {
	f := func(seed int64) bool {
		w := Generate(Config{Seed: seed, Metros: DefaultMetros(0.06)})
		// Truth matrices.
		for _, tr := range w.Truths {
			for i := 0; i < tr.M.N(); i++ {
				for _, j := range tr.M.RowView(i) {
					if !tr.M.Has(int(j), i) {
						return false
					}
				}
				if tr.M.Has(i, i) {
					return false
				}
			}
		}
		// Link metros.
		for pr, metros := range w.LinkMetros {
			if len(metros) == 0 {
				return false
			}
			rel := w.Rel[pr]
			shared := map[int]bool{}
			for _, m := range w.G.SharedMetros(pr.A, pr.B) {
				shared[m] = true
			}
			for _, m := range metros {
				if shared[m] {
					continue
				}
				if rel != asgraph.C2P {
					return false // peering requires colocation
				}
				// Long-haul transit: must be the customer's home metro.
				cust := pr.A
				if !w.CustomerIsA[pr] {
					cust = pr.B
				}
				if m != w.G.ASes[cust].Metros[0] {
					return false
				}
			}
		}
		// Relationship consistency.
		for pr, rel := range w.Rel {
			switch rel {
			case asgraph.P2P:
				if !w.G.HasPeer(pr.A, pr.B) {
					return false
				}
			case asgraph.C2P:
				cust, prov := pr.A, pr.B
				if !w.CustomerIsA[pr] {
					cust, prov = prov, cust
				}
				if !w.G.HasProvider(cust, prov) {
					return false
				}
			}
		}
		// IXP membership implies metro presence.
		for _, ix := range w.G.IXPs {
			for _, m := range ix.Members {
				if !w.G.ASes[m].HasMetro(ix.Metro) {
					return false
				}
			}
		}
		// Probes live in ASes present at their metro.
		for _, p := range w.Probes {
			if !w.G.ASes[p.AS].HasMetro(p.Metro) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 6}); err != nil {
		t.Fatal(err)
	}
}

// Property: the hidden latent vectors have the configured dimension and
// footprints are sorted and unique.
func TestFootprintProperty(t *testing.T) {
	f := func(seed int64) bool {
		w := Generate(Config{Seed: seed, Metros: DefaultMetros(0.06), LatentDim: 6})
		if w.Latent.Cols != 6 || w.Latent.Rows != w.G.N() {
			return false
		}
		for _, a := range w.G.ASes {
			for i := 1; i < len(a.Metros); i++ {
				if a.Metros[i] <= a.Metros[i-1] {
					return false
				}
			}
			if len(a.Metros) == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 6}); err != nil {
		t.Fatal(err)
	}
}
