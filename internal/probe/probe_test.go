package probe

import (
	"math/rand"
	"testing"

	"metascritic/internal/asgraph"
)

// probeGraph: metros 0 (AMS/NL), 1 (ROT/NL), 2 (NYC/US).
// ASes: 0 transit (provider of 1,2,3), 1..4 members at metro 0.
func probeGraph() *asgraph.Graph {
	g := asgraph.NewGraph()
	g.Continents = []string{"EU", "NA"}
	g.Countries = []asgraph.Country{{Code: "NL", Continent: 0}, {Code: "US", Continent: 1}}
	g.Metros = []*asgraph.Metro{
		{Index: 0, Name: "Amsterdam", Country: 0},
		{Index: 1, Name: "Rotterdam", Country: 0},
		{Index: 2, Name: "NewYork", Country: 1},
	}
	g.IXPs = []*asgraph.IXP{{Index: 0, Name: "AMS-IX", Metro: 0, HasRouteServer: true}}
	for i := 0; i < 5; i++ {
		g.AddAS(&asgraph.AS{ASN: 100 + i, Metros: []int{0, 1, 2}})
	}
	for i := 1; i < 5; i++ {
		g.AddC2P(i, 0)
	}
	g.ASes[2].IXPs = []int{0}
	g.IXPs[0].Members = []int{2}
	return g
}

func newTestSelector() *Selector {
	g := probeGraph()
	members := []int{1, 2, 3, 4}
	vps := []VP{
		{AS: 1, Metro: 0}, // in AS 1, same metro
		{AS: 0, Metro: 2}, // provider's probe far away
		{AS: 3, Metro: 1}, // in AS 3, same country
	}
	return NewSelector(g, 0, members, vps, []int{1, 2, 3, 4})
}

func TestStrategyIDRoundTrip(t *testing.T) {
	if NumStrategies != 144 {
		t.Fatalf("NumStrategies = %d, want 144", NumStrategies)
	}
	seen := map[int]bool{}
	for vg := asgraph.SameMetro; vg < asgraph.NumGeoScopes; vg++ {
		for vt := VPInAS; vt < numVPTopo; vt++ {
			for tg := asgraph.SameMetro; tg < asgraph.NumGeoScopes; tg++ {
				for tt := TgtInAS; tt < numTgtTopo; tt++ {
					s := Strategy{vg, vt, tg, tt}
					id := s.ID()
					if id < 0 || id >= NumStrategies {
						t.Fatalf("ID out of range: %d", id)
					}
					if seen[id] {
						t.Fatalf("duplicate ID %d", id)
					}
					seen[id] = true
					if StrategyFromID(id) != s {
						t.Fatalf("round trip failed for %+v", s)
					}
				}
			}
		}
	}
}

// catVPs and catTgts look up one category's pool in the dense sorted
// category lists (test convenience; missing key = empty pool).
func catVPs(s *Selector, cats []vpCat, key int) []VP {
	for i := range cats {
		if cats[i].key == key {
			vps := make([]VP, cats[i].n)
			for k := range vps {
				vps[k] = s.vps[cats[i].at(k)]
			}
			return vps
		}
	}
	return nil
}

func catTgts(cats []tgtCat, key int) []Target {
	for i := range cats {
		if cats[i].key == key {
			return cats[i].tgts
		}
	}
	return nil
}

func TestVPCategorization(t *testing.T) {
	s := newTestSelector()
	// AS 1 (row 0) hosts a VP in the metro: category (SameMetro, VPInAS).
	cats := s.vpCategories(s.Index[1])
	key := int(asgraph.SameMetro)*int(numVPTopo) + int(VPInAS)
	if got := catVPs(s, cats, key); len(got) != 1 || got[0].AS != 1 {
		t.Fatalf("cats[%d] = %+v", key, got)
	}
	// VP in AS 0 (provider, not in cone of 1) at NYC: different continents
	// NL vs US ⇒ Elsewhere, VPOutside.
	key2 := int(asgraph.Elsewhere)*int(numVPTopo) + int(VPOutside)
	if got := catVPs(s, cats, key2); len(got) != 1 || got[0].AS != 0 {
		t.Fatalf("cats[%d] = %+v", key2, got)
	}
	// Category keys come back sorted (the selection loops rely on it).
	for i := 1; i < len(cats); i++ {
		if cats[i-1].key >= cats[i].key {
			t.Fatalf("category keys not sorted: %+v", cats)
		}
	}
	// Every VP of s.vps is enumerated exactly once, in vps order within its
	// category, and its canonical index resolves to the same VP value.
	seen := make([]bool, len(s.vps))
	for _, c := range cats {
		prev := int32(-1)
		for k := 0; k < c.n; k++ {
			vi := c.at(k)
			if vi <= prev || seen[vi] {
				t.Fatalf("category %d: index %d out of order or repeated", c.key, vi)
			}
			prev, seen[vi] = vi, true
			if s.vps[s.canon[vi]] != s.vps[vi] {
				t.Fatalf("canonical index %d does not resolve to %+v", s.canon[vi], s.vps[vi])
			}
		}
	}
	for vi, ok := range seen {
		if !ok {
			t.Fatalf("VP %+v in no category", s.vps[vi])
		}
	}
}

func TestVPInConeCategory(t *testing.T) {
	s := newTestSelector()
	// For AS 0's row... AS 0 is not a member; use member 3 and check VP
	// in AS 3: in-AS; probe of AS 1 relative to AS 3: outside.
	cats := s.vpCategories(s.Index[3])
	key := int(asgraph.SameCountry)*int(numVPTopo) + int(VPInAS)
	if got := catVPs(s, cats, key); len(got) != 1 || got[0].AS != 3 {
		t.Fatalf("in-AS same-country VP miscategorized: %+v", cats)
	}
}

func TestTargetsForIncludesIXPAdjacent(t *testing.T) {
	s := newTestSelector()
	tc := s.targetsFor(s.Index[2]) // AS 2 is on AMS-IX
	keyAdj := int(asgraph.SameMetro)*int(numTgtTopo) + int(TgtAdjIXP)
	if len(catTgts(tc, keyAdj)) == 0 {
		t.Fatalf("AdjIXP targets missing: %+v", tc)
	}
	keyIn := int(asgraph.SameMetro)*int(numTgtTopo) + int(TgtInAS)
	if len(catTgts(tc, keyIn)) == 0 {
		t.Fatalf("in-AS targets missing")
	}
	// AS 4 is not on an IXP: no AdjIXP targets.
	tc4 := s.targetsFor(s.Index[4])
	if len(catTgts(tc4, keyAdj)) != 0 {
		t.Fatalf("AS 4 should have no AdjIXP targets")
	}
}

func TestTargetsRespectHitlist(t *testing.T) {
	g := probeGraph()
	s := NewSelector(g, 0, []int{1, 2}, []VP{{AS: 1, Metro: 0}}, []int{1}) // only AS 1 probe-able
	tc := s.targetsFor(s.Index[2])
	for _, cat := range tc {
		for _, tg := range cat.tgts {
			if tg.AS == 2 {
				t.Fatalf("target in AS 2 despite missing from hitlist")
			}
		}
	}
}

func TestEntryProbAndMeasurement(t *testing.T) {
	s := newTestSelector()
	rng := rand.New(rand.NewSource(1))
	p, m := s.EntryProb(0, 1, rng) // members[0]=1, members[1]=2
	if p <= 0 || m == nil {
		t.Fatalf("EntryProb = %v, %v", p, m)
	}
	if m.LinkI != 1 || m.LinkJ != 2 {
		t.Fatalf("measurement links %d-%d", m.LinkI, m.LinkJ)
	}
	if p > 1 {
		t.Fatalf("probability > 1: %v", p)
	}
}

func TestReportUpdatesStatsAndPenalty(t *testing.T) {
	s := newTestSelector()
	rng := rand.New(rand.NewSource(2))
	_, m := s.EntryProb(0, 1, rng)
	id := m.Strat.ID()
	before := s.baseRate(id)
	s.Report(*m, true)
	if s.baseRate(id) <= before {
		t.Fatalf("success should raise strategy rate")
	}
	// Failures halve the per-entry penalty each time.
	s.Report(*m, false)
	i, j := s.Index[m.LinkI], s.Index[m.LinkJ]
	if pen := s.penaltyFor(i, j, id); pen != 0.5 {
		t.Fatalf("penalty = %v, want 0.5", pen)
	}
	s.Report(*m, false)
	if pen := s.penaltyFor(i, j, id); pen != 0.25 {
		t.Fatalf("penalty = %v, want 0.25", pen)
	}
	// Informative report clears the penalty.
	s.Report(*m, true)
	if pen := s.penaltyFor(i, j, id); pen != 1 {
		t.Fatalf("penalty after success = %v, want 1", pen)
	}
}

func TestPenaltyLowersEntryProb(t *testing.T) {
	s := newTestSelector()
	rng := rand.New(rand.NewSource(3))
	p0, m := s.EntryProb(0, 1, rng)
	// Penalize every strategy for the entry to force the drop.
	for id := 0; id < NumStrategies; id++ {
		s.setPenalty(0*len(s.Members)+1, id, 0.25)
	}
	p1, _ := s.EntryProb(0, 1, rng)
	if p1 >= p0 {
		t.Fatalf("penalty should lower P: %v -> %v", p0, p1)
	}
	_ = m
}

func TestSelectBatchFillsNeediestRows(t *testing.T) {
	s := newTestSelector()
	rng := rand.New(rand.NewSource(4))
	rowFill := []int{0, 3, 3, 3}
	need := []int{2, 0, 0, 0}
	batch := s.SelectBatch(2, 0, rowFill, need, func(i, j int) bool { return false }, rng)
	if len(batch) != 2 {
		t.Fatalf("batch size %d", len(batch))
	}
	for _, m := range batch {
		if m.LinkI != s.Members[0] && m.LinkJ != s.Members[0] {
			t.Fatalf("measurement should involve the needy row, got %d-%d", m.LinkI, m.LinkJ)
		}
		if m.Exploration {
			t.Fatalf("eps=0 must not explore")
		}
	}
	// No duplicate entries within a batch.
	seen := map[[2]int]bool{}
	for _, m := range batch {
		k := [2]int{m.LinkI, m.LinkJ}
		if seen[k] {
			t.Fatalf("duplicate entry in batch")
		}
		seen[k] = true
	}
}

func TestSelectBatchExploration(t *testing.T) {
	s := newTestSelector()
	rng := rand.New(rand.NewSource(5))
	rowFill := []int{0, 0, 0, 0}
	need := []int{3, 3, 3, 3}
	batch := s.SelectBatch(6, 1.0, rowFill, need, func(i, j int) bool { return false }, rng)
	if len(batch) == 0 {
		t.Fatalf("empty batch")
	}
	explored := 0
	for _, m := range batch {
		if m.Exploration {
			explored++
		}
	}
	if explored == 0 {
		t.Fatalf("eps=1 should produce exploration measurements")
	}
	// One exploration per entry ever: a second full-exploration batch must
	// not retry the same entries.
	batch2 := s.SelectBatch(6, 1.0, rowFill, need, func(i, j int) bool { return false }, rng)
	seen := map[[2]int]bool{}
	for _, m := range batch {
		if m.Exploration {
			seen[[2]int{m.LinkI, m.LinkJ}] = true
		}
	}
	for _, m := range batch2 {
		if m.Exploration && seen[[2]int{m.LinkI, m.LinkJ}] {
			t.Fatalf("entry explored twice")
		}
	}
}

func TestSelectBatchStopsWhenNothingNeeded(t *testing.T) {
	s := newTestSelector()
	rng := rand.New(rand.NewSource(6))
	batch := s.SelectBatch(5, 0.1, []int{5, 5, 5, 5}, []int{0, 0, 0, 0}, func(i, j int) bool { return false }, rng)
	if len(batch) != 0 {
		t.Fatalf("batch should be empty when no row needs entries, got %d", len(batch))
	}
}

func TestInitPriorsAndPooling(t *testing.T) {
	s := newTestSelector()
	var prior [NumStrategies]float64
	for i := range prior {
		prior[i] = 0.9
	}
	s.InitPriors(prior, 50)
	for i := range prior {
		if r := s.baseRate(i); r < 0.7 {
			t.Fatalf("prior not applied: rate[%d] = %v", i, r)
		}
	}
	r1 := s.StrategyRates()
	var low [NumStrategies]float64 // all zeros
	pooled := PoolPriors(r1, low)
	for i := range pooled {
		if pooled[i] < 0 || pooled[i] > 1 {
			t.Fatalf("pooled rate out of range")
		}
		want := r1[i] / 2
		if diff := pooled[i] - want; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("pooled[%d] = %v, want %v", i, pooled[i], want)
		}
	}
	var empty [NumStrategies]float64
	if PoolPriors() != empty {
		t.Fatalf("PoolPriors() should be zero")
	}
}

func TestPickVPBiasedByScore(t *testing.T) {
	s := newTestSelector()
	rng := rand.New(rand.NewSource(7))
	vps := []VP{{AS: 1, Metro: 0}, {AS: 3, Metro: 1}}
	idxs := make([]int32, len(vps))
	for k, vp := range vps {
		vi, ok := s.vpIndexOf(vp)
		if !ok {
			t.Fatalf("test VP %+v not in selector vps", vp)
		}
		idxs[k] = vi
	}
	vc := &vpCat{n: len(idxs), own: idxs}
	// Give VP (1,0) a perfect score for member AS 1 (row 0) and VP (3,1) a
	// terrible one.
	row := s.Index[1]
	s.vpScore[row] = []vpCount{
		{vp: idxs[0], good: 10, total: 10},
		{vp: idxs[1], good: 0, total: 10},
	}
	wins := 0
	for k := 0; k < 1000; k++ {
		if s.pickVP(vc, row, rng) == vps[0] {
			wins++
		}
	}
	if wins < 700 {
		t.Fatalf("high-score VP picked only %d/1000", wins)
	}
}

func TestBootstrapPlan(t *testing.T) {
	s := newTestSelector()
	rng := rand.New(rand.NewSource(8))
	plan := s.BootstrapPlan(2, 200, rng)
	if len(plan) == 0 {
		t.Fatalf("empty bootstrap plan")
	}
	perStrategy := map[int]int{}
	for _, m := range plan {
		perStrategy[m.Strat.ID()]++
		if m.LinkI == m.LinkJ {
			t.Fatalf("self-link in plan")
		}
		if _, ok := s.Index[m.LinkI]; !ok {
			t.Fatalf("plan references non-member %d", m.LinkI)
		}
		if m.P <= 0 || m.P > 1 {
			t.Fatalf("plan probability out of range: %v", m.P)
		}
	}
	for id, n := range perStrategy {
		if n > 2 {
			t.Fatalf("strategy %d sampled %d times, cap 2", id, n)
		}
	}
	// Degenerate selectors produce empty plans.
	g := probeGraph()
	tiny := NewSelector(g, 0, []int{1}, nil, nil)
	if p := tiny.BootstrapPlan(2, 50, rng); p != nil {
		t.Fatalf("single-member selector should have no plan")
	}
}

// countingSource counts the Int63 draws a rand.Rand makes.
type countingSource struct {
	rand.Source
	draws int
}

func (c *countingSource) Int63() int64 { c.draws++; return c.Source.Int63() }

// TestSkipDrawsMatchRNG checks that the replay path advances the stream
// exactly as the draws it stands in for: skipIntn as rng.Intn(n), skipFrom
// as pickVP on a category of n VPs followed by a target's Intn, and each
// category's draw count as pickVP's. skipIntn relies on math/rand (v1)
// keeping Int31n's rejection loop, frozen by the Go 1 compatibility
// promise; if that ever changed, this test would fail first.
func TestSkipDrawsMatchRNG(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 16, 24, 25, 64, 100, 1<<20 + 1} {
		src := &countingSource{Source: rand.NewSource(int64(n))}
		want, got := rand.New(src), rand.New(rand.NewSource(int64(n)))
		const reps = 20000
		accept := intnBound(n)
		for k := 0; k < reps; k++ {
			want.Intn(n)
			skipIntn(got, accept)
		}
		if want.Int63() != got.Int63() {
			t.Fatalf("n=%d: skipIntn diverged from Intn", n)
		}
		if n == 1<<20+1 && src.draws <= reps+1 {
			t.Fatalf("n=%d: %d draws for %d Intn, no rejection exercised", n, src.draws, reps)
		}

		vps := make([]VP, n)
		own := make([]int32, n)
		for k := range vps {
			vps[k], own[k] = VP{AS: k, Metro: 0}, int32(k)
		}
		s := NewSelector(probeGraph(), 0, []int{1, 2}, vps, nil)
		cat := newVPCat(0, n, own, nil, nil)
		vc := &cat
		tc := &tgtCat{accept: intnBound(3)}
		for k := 0; k < 1000; k++ {
			s.pickVP(vc, 0, want)
			want.Intn(3)
			skipFrom(vc, tc, 0, got)
		}
		if want.Int63() != got.Int63() {
			t.Fatalf("n=%d: skipFrom diverged from pickVP and Intn", n)
		}
		src.draws = 0
		s.pickVP(vc, 0, want)
		if src.draws != vc.draws && n < 1<<20 {
			t.Fatalf("n=%d: pickVP made %d draws, the category says %d", n, src.draws, vc.draws)
		}
	}
}
