package obs

// Copy-on-write snapshot tests: Clone must be O(1) allocations, and
// interleaved (or fully concurrent — exercised under -race via `make
// check`) mutation of a base store and its snapshots must never leak
// evidence in either direction. Isolation is checked against reference
// stores built from scratch over each side's exact trace sequence.

import (
	"math/rand"
	"sync"
	"testing"

	"metascritic/internal/traceroute"
)

// replayStore builds a fresh store and ingests the traces in order.
func replayStore(traces []traceroute.Trace) *Store {
	s := NewStore(testGraph(), fakeResolve)
	for _, tr := range traces {
		s.AddTrace(tr)
	}
	return s
}

// requireStoresAgree fails unless the two stores produce identical
// estimates for every policy at every metro (the full observable surface
// of accumulated evidence).
func requireStoresAgree(t *testing.T, tag string, got, want *Store) {
	t.Helper()
	members := []int{0, 1, 2, 3, 4, 5}
	for _, pol := range allPolicies {
		for metro := 0; metro < 4; metro++ {
			g := got.Estimate(metro, members, pol)
			w := want.Estimate(metro, members, pol)
			requireSameEstimate(t, tag+" policy "+itoa(int(pol))+" metro "+itoa(metro), g, w)
		}
	}
}

// TestCloneAllocs pins the O(1) copy-on-write contract: Clone of a large
// store performs a constant, tiny number of allocations (the handle and
// its identity token), no matter how much evidence has accumulated.
func TestCloneAllocs(t *testing.T) {
	s := replayStore(nil)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 300; i++ {
		s.AddTrace(randTrace(rng))
	}
	var sink *Store
	if n := testing.AllocsPerRun(100, func() { sink = s.Clone() }); n > 2 {
		t.Fatalf("Clone allocated %v times per run, want <= 2 (O(1) COW handle)", n)
	}
	_ = sink
}

// TestSnapshotIsolationInterleaved interleaves mutations on a base store
// and a COW snapshot, trace by trace, and verifies both ends match
// reference stores that never shared anything.
func TestSnapshotIsolationInterleaved(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	shared := make([]traceroute.Trace, 30)
	for i := range shared {
		shared[i] = randTrace(rng)
	}
	base := replayStore(shared)
	est := base.Estimate(0, []int{0, 1, 2, 3, 4, 5}, NegMetascritic)
	snap := base.Clone()

	var baseSide, snapSide []traceroute.Trace
	for i := 0; i < 40; i++ {
		tr := randTrace(rng)
		if i%2 == 0 {
			baseSide = append(baseSide, tr)
			base.AddTrace(tr)
		} else {
			snapSide = append(snapSide, tr)
			snap.AddTrace(tr)
		}
	}

	requireStoresAgree(t, "base", base, replayStore(append(shared[:len(shared):len(shared)], baseSide...)))
	requireStoresAgree(t, "snap", snap, replayStore(append(shared[:len(shared):len(shared)], snapSide...)))
	// Delta-refresh across the divergence still matches a rebuild on the
	// estimate's own store.
	base.Refresh(est)
	requireSameEstimate(t, "refreshed", est, base.Estimate(0, []int{0, 1, 2, 3, 4, 5}, NegMetascritic))
}

// TestSnapshotIsolationConcurrent mutates a base store and two snapshots
// from separate goroutines. Divergent post-clone mutation is the engine's
// usage pattern; under `make check` the race detector checks that lazy
// copy-on-write never writes a structure another store still reads.
func TestSnapshotIsolationConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	shared := make([]traceroute.Trace, 25)
	for i := range shared {
		shared[i] = randTrace(rng)
	}
	base := replayStore(shared)

	// Pre-generate each side's traces so goroutines never share the RNG.
	sides := make([][]traceroute.Trace, 3)
	for i := range sides {
		sides[i] = make([]traceroute.Trace, 30)
		for k := range sides[i] {
			sides[i][k] = randTrace(rng)
		}
	}

	// Snapshots are taken concurrently with each other and with reads of
	// the base, as engine workers do.
	stores := make([]*Store, 3)
	stores[0] = base
	var cwg sync.WaitGroup
	for i := 1; i < 3; i++ {
		cwg.Add(1)
		go func(i int) {
			defer cwg.Done()
			stores[i] = base.Clone()
		}(i)
	}
	cwg.Wait()

	var wg sync.WaitGroup
	for i, s := range stores {
		wg.Add(1)
		go func(s *Store, traces []traceroute.Trace) {
			defer wg.Done()
			for _, tr := range traces {
				s.AddTrace(tr)
			}
			// Estimates exercise the read paths (including the lazily
			// populated consistency cache) while siblings mutate.
			s.Estimate(1, []int{0, 1, 2, 3, 4, 5}, NegMetascritic)
		}(s, sides[i])
	}
	wg.Wait()

	for i, s := range stores {
		ref := replayStore(append(shared[:len(shared):len(shared)], sides[i]...))
		requireStoresAgree(t, "store "+itoa(i), s, ref)
	}
}

// TestSnapshotSharesUntilMutation sanity-checks that a clone really does
// share the evidence structures until one side mutates (the mechanism
// behind the Clone alloc budget), and that mutation splits them.
func TestSnapshotSharesUntilMutation(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	base := replayStore(nil)
	for i := 0; i < 20; i++ {
		base.AddTrace(randTrace(rng))
	}
	snap := base.Clone()
	if base.shared != cowAll || snap.shared != cowAll {
		t.Fatalf("clone must mark every group shared on both stores: base %b snap %b", base.shared, snap.shared)
	}
	snap.AddTrace(mkTrace(3, 0, 4, [2]int{3, 0}, [2]int{4, 0}))
	if snap.shared&cowProbes != 0 {
		t.Fatalf("mutation must take ownership of the probes group")
	}
	if base.shared != cowAll {
		t.Fatalf("mutating the snapshot must leave the base's sharing intact: %b", base.shared)
	}
	if dm := base.DirectMetros(3, 4); len(dm) != 0 {
		t.Fatalf("snapshot mutation leaked into base: %v", dm)
	}
	if dm := snap.DirectMetros(3, 4); len(dm) != 1 || dm[0] != 0 {
		t.Fatalf("snapshot lost its own mutation: %v", dm)
	}
}
