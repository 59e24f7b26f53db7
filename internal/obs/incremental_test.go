package obs

// Tests for the delta-maintained estimate path: Store.Refresh must be
// byte-identical to a from-scratch EstimateScoped for every policy and
// scope (the PR 4 equivalence contract), the unified consistency cache
// must refresh when new traces contradict it, and the no-delta Refresh
// fast path must not allocate.

import (
	"math/rand"
	"strconv"
	"testing"

	"metascritic/internal/asgraph"
	"metascritic/internal/traceroute"
)

// randTrace builds a random (but valid) trace over testGraph's 6 ASes and
// 4 metros: 2-6 hops, occasional unresponsive hops, hop metros drifting so
// crossings land at every geographic scope.
func randTrace(rng *rand.Rand) traceroute.Trace {
	vp := rng.Intn(6)
	vpMetro := rng.Intn(4)
	tr := traceroute.Trace{VPAS: vp, VPMetro: vpMetro, DstAS: rng.Intn(6), Reached: true}
	n := 2 + rng.Intn(5)
	as, metro := vp, vpMetro
	for h := 0; h < n; h++ {
		if rng.Intn(8) == 0 {
			tr.Hops = append(tr.Hops, traceroute.Hop{Responsive: false})
			continue
		}
		tr.Hops = append(tr.Hops, traceroute.Hop{Addr: fakeAddr(as, metro), Responsive: true})
		if rng.Intn(3) > 0 {
			as = rng.Intn(6)
		}
		if rng.Intn(4) == 0 {
			metro = rng.Intn(4)
		}
	}
	return tr
}

// requireSameEstimate fails unless a and b have identical E contents and
// mask rows.
func requireSameEstimate(t *testing.T, tag string, got, want *Estimate) {
	t.Helper()
	if got.E.N() != want.E.N() {
		t.Fatalf("%s: E size %d != %d", tag, got.E.N(), want.E.N())
	}
	for i := 0; i < want.E.N(); i++ {
		for j := 0; j < want.E.N(); j++ {
			if g, w := got.E.At(i, j), want.E.At(i, j); g != w {
				t.Fatalf("%s: E(%d,%d) = %v, want %v", tag, i, j, g, w)
			}
		}
	}
	if gn, wn := got.Mask.Count(), want.Mask.Count(); gn != wn {
		t.Fatalf("%s: mask count %d != %d", tag, gn, wn)
	}
	for i := 0; i < got.Mask.N(); i++ {
		gr, wr := got.Mask.RowView(i), want.Mask.RowView(i)
		if len(gr) != len(wr) {
			t.Fatalf("%s: mask row %d len %d != %d", tag, i, len(gr), len(wr))
		}
		for k := range wr {
			if gr[k] != wr[k] {
				t.Fatalf("%s: mask row %d entry %d = %d, want %d", tag, i, k, gr[k], wr[k])
			}
		}
	}
}

var allPolicies = []NegativePolicy{NegFull, NegWellPositioned, NegMetascritic, NegNone}

// TestRefreshEquivalence drives random trace streams through a store while
// delta-refreshing estimates for every (policy, maxScope, metro)
// combination, comparing each against a from-scratch rebuild after every
// round.
func TestRefreshEquivalence(t *testing.T) {
	members := []int{0, 1, 2, 3, 4, 5}
	for seed := int64(1); seed <= 8; seed++ {
		g := testGraph()
		s := NewStore(g, fakeResolve)
		rng := rand.New(rand.NewSource(seed))
		metro := rng.Intn(4)

		type tracked struct {
			policy NegativePolicy
			scope  asgraph.GeoScope
			est    *Estimate
		}
		var track []*tracked
		for _, pol := range allPolicies {
			for sc := asgraph.SameMetro; sc <= asgraph.Elsewhere; sc++ {
				track = append(track, &tracked{policy: pol, scope: sc,
					est: s.EstimateScoped(metro, members, pol, sc)})
			}
		}

		for round := 0; round < 12; round++ {
			for k := 0; k < 1+rng.Intn(6); k++ {
				s.AddTrace(randTrace(rng))
			}
			for _, tr := range track {
				s.Refresh(tr.est)
				fresh := s.EstimateScoped(metro, members, tr.policy, tr.scope)
				tag := "seed " + itoa(int(seed)) + " round " + itoa(round) +
					" policy " + itoa(int(tr.policy)) + " scope " + itoa(int(tr.scope))
				requireSameEstimate(t, tag, tr.est, fresh)
			}
		}
	}
}

func itoa(v int) string { return strconv.Itoa(v) }

// TestRefreshAcrossCloneRebuilds pins the store-identity check: an
// estimate carried across a Clone split must be rebuilt against the store
// actually refreshing it, not delta-patched with the wrong log.
func TestRefreshAcrossCloneRebuilds(t *testing.T) {
	g := testGraph()
	s := NewStore(g, fakeResolve)
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 20; i++ {
		s.AddTrace(randTrace(rng))
	}
	members := []int{0, 1, 2, 3, 4, 5}
	est := s.Estimate(1, members, NegMetascritic)

	snap := s.Clone()
	for i := 0; i < 10; i++ {
		snap.AddTrace(randTrace(rng))
	}
	got := snap.Refresh(est)
	if got == est {
		t.Fatalf("Refresh across a clone split must return a fresh estimate")
	}
	requireSameEstimate(t, "across-clone", got, snap.Estimate(1, members, NegMetascritic))
	// The original estimate still refreshes against its own store.
	s.Refresh(est)
	requireSameEstimate(t, "original", est, s.Estimate(1, members, NegMetascritic))
}

// FuzzRefreshEquivalence lets the fuzzer drive the trace stream and the
// refresh cadence; any divergence between the delta-refreshed estimate and
// a from-scratch rebuild is a bug.
func FuzzRefreshEquivalence(f *testing.F) {
	f.Add(int64(3), []byte{0x01, 0x80, 0x33, 0xff, 0x12})
	f.Add(int64(7), []byte{0xaa, 0x00, 0x04})
	f.Fuzz(func(t *testing.T, seed int64, program []byte) {
		g := testGraph()
		s := NewStore(g, fakeResolve)
		rng := rand.New(rand.NewSource(seed))
		members := []int{0, 1, 2, 3, 4, 5}
		metro := int(uint(seed) % 4)
		policy := allPolicies[int(uint(seed)>>2)%len(allPolicies)]
		scope := asgraph.GeoScope(int(uint(seed)>>4) % int(asgraph.NumGeoScopes))
		est := s.EstimateScoped(metro, members, policy, scope)
		for _, op := range program {
			for k := 0; k < int(op&0x07); k++ {
				s.AddTrace(randTrace(rng))
			}
			if op&0x08 != 0 {
				s.Refresh(est)
				requireSameEstimate(t, "fuzz", est, s.EstimateScoped(metro, members, policy, scope))
			}
		}
		s.Refresh(est)
		requireSameEstimate(t, "fuzz-final", est, s.EstimateScoped(metro, members, policy, scope))
	})
}

// TestConsistencyCacheRefreshesAfterTrace pins the unified epoch-based
// consistency cache: a cached ConsistentASes result must be invalidated
// when a later trace introduces a contradiction at that scope.
func TestConsistencyCacheRefreshesAfterTrace(t *testing.T) {
	g := testGraph()
	s := NewStore(g, fakeResolve)

	// Transit pattern 0 -> 2 -> 1 at metro 0 (AS 2 is a provider of both):
	// non-link evidence for (0,1), no contradiction yet.
	s.AddTrace(mkTrace(0, 0, 1, [2]int{0, 0}, [2]int{2, 0}, [2]int{1, 0}))
	if c := s.ConsistentASes(asgraph.SameMetro); !c[0] || !c[1] {
		t.Fatalf("no contradiction yet, 0 and 1 should be consistent: %v", c)
	}
	// Same result again must come from the cache (same map).
	if s.consistent[asgraph.SameMetro] == nil {
		t.Fatalf("first ConsistentASes call did not populate the cache")
	}

	// Now a direct crossing 0-1 at metro 0: contradictory at SameMetro.
	s.AddTrace(mkTrace(4, 0, 1, [2]int{0, 0}, [2]int{1, 0}))
	c := s.ConsistentASes(asgraph.SameMetro)
	if c[0] && c[1] {
		t.Fatalf("contradiction at SameMetro must eliminate an AS of the pair: %v", c)
	}
	// A scope the new conflict also reaches is invalidated too (the event
	// scope is SameMetro, which is <= every wider scope).
	wide := s.ConsistentASes(asgraph.Elsewhere)
	if wide[0] && wide[1] {
		t.Fatalf("contradiction must surface at wider scopes too: %v", wide)
	}
}

// TestRefreshNoDeltaAllocs pins the incremental fast path: refreshing an
// estimate when nothing changed must not allocate at all, and a refresh
// after a single trace must stay within a small constant budget.
func TestRefreshNoDeltaAllocs(t *testing.T) {
	g := testGraph()
	s := NewStore(g, fakeResolve)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 40; i++ {
		s.AddTrace(randTrace(rng))
	}
	members := []int{0, 1, 2, 3, 4, 5}
	est := s.Estimate(2, members, NegWellPositioned)

	if n := testing.AllocsPerRun(100, func() { s.Refresh(est) }); n != 0 {
		t.Fatalf("no-delta Refresh allocated %v times per run, want 0", n)
	}

	// Delta refresh budget: one trace dirties a handful of pairs; the only
	// allowed allocations are the dedup set and mask-row growth.
	traces := make([]traceroute.Trace, 200)
	for i := range traces {
		traces[i] = randTrace(rng)
	}
	i := 0
	if n := testing.AllocsPerRun(100, func() {
		s.AddTrace(traces[i%len(traces)])
		i++
		s.Refresh(est)
	}); n > 40 {
		t.Fatalf("delta Refresh allocated %v times per run, budget 40", n)
	}
}
