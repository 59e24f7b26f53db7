package probe

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"metascritic/internal/asgraph"
)

// The reference selector below is the selection code from before scoring
// was split from drawing: entryProb materializes a measurement for every
// pair it rates, exploration sorts all open pairs with a comparator,
// penalties are dense per-strategy slices and every row copies its VPs.
// It is kept verbatim apart from type and constructor names as the golden
// oracle: the Selector must reproduce every measurement and every RNG
// draw it makes.

// refCounter tracks informative/total outcomes of a (VP, member) pairing.
type refCounter struct{ good, total float64 }

// refVPCat is one non-empty vantage-point category of a member row: the VPs
// plus their indices into refSelector.vps (for the dense score table).
type refVPCat struct {
	key  int
	vps  []VP
	idxs []int32
}

// refTgtCat is one non-empty target category of a member row.
type refTgtCat struct {
	key  int
	tgts []Target
}

// refSelector chooses measurements for one metro. It sees only public data:
// the AS graph (relationships, footprints, IXP membership), probe
// locations, and a hitlist of probe-able targets. A refSelector is not safe
// for concurrent use.
type refSelector struct {
	G     *asgraph.Graph
	Metro int
	// Members are the ASes of the connectivity matrix, row order.
	Members []int
	Index   map[int]int

	vps []VP
	// hitlist lists believed-responsive target ASes (ISI hitlist analog).
	hitlist map[int]bool

	// Strategy-level statistics (Beta-style pseudo-counts).
	stratSucc  [NumStrategies]float64
	stratTrial [NumStrategies]float64

	// Per-entry penalties, dense by member-row pair (i*n+j): repeated
	// uninformative attempts at the same entry with the same strategy
	// halve its probability (§3.3.2), and a milder entry-wide factor
	// discourages cycling through strategies on an elusive link.
	// penalty is keyed by the ORDERED pair and holds a lazily allocated
	// per-strategy factor slice (0 = no penalty); entryPenalty is keyed
	// by the unordered pair (i<j) with 0 meaning no penalty (factor 1).
	penalty      map[int][]float64
	entryPenalty []float64
	// explored marks entries that spent their one exploration attempt
	// (unordered, i<j).
	explored []bool

	// VP scoring: per (member row, vp index) informative/total counts.
	// Rows are allocated lazily on first Report for the member, so the
	// table stays proportional to the measured rows. vpIndex resolves a
	// VP value back to its index in vps (built on first Report).
	vpScore [][]refCounter
	vpIndex map[VP]int32

	// Cached per-member-row VP and target categorizations as dense lists
	// sorted by category key (map iteration order is random; the hot
	// path must be deterministic and cannot afford re-sorting).
	vpCats  [][]refVPCat
	tgtCats [][]refTgtCat

	// Batch-scoped scratch, reused across SelectBatch calls and across
	// the EntryProb sweep (one refSelector serves one goroutine).
	fillScratch   []int
	pendingMark   []bool // n×n: entry already chosen in this batch
	perRowScratch []int  // explorations per row in this batch
	rowSorter     refRowFillSorter
	refCandSorter refCandSorter
	sampleScratch []VP
	idxScratch    []int32
	weightScratch []float64
	// Result slots for the allocation-free entryProb: A and B hold the
	// two orientations of the pair under evaluation, best holds the
	// winner across pairs (so later evaluations cannot clobber it).
	measureA, measureB, measureBest Measurement
}

type refExploreCand struct{ i, j, sum int }

// refRowFillSorter and refCandSorter are reusable sort.Interface
// implementations: the selection loops sort once per chosen measurement,
// and sort.Slice's reflect-based swapper allocates per call while
// sort.Sort/sort.Stable on a pointer receiver does not.
type refRowFillSorter struct {
	rows []int
	fill []int
}

func (s *refRowFillSorter) Len() int           { return len(s.rows) }
func (s *refRowFillSorter) Less(a, b int) bool { return s.fill[s.rows[a]] < s.fill[s.rows[b]] }
func (s *refRowFillSorter) Swap(a, b int)      { s.rows[a], s.rows[b] = s.rows[b], s.rows[a] }

type refCandSorter struct{ cands []refExploreCand }

func (s *refCandSorter) Len() int { return len(s.cands) }
func (s *refCandSorter) Less(a, b int) bool {
	ca, cb := &s.cands[a], &s.cands[b]
	if ca.sum != cb.sum {
		return ca.sum < cb.sum
	}
	if ca.i != cb.i {
		return ca.i < cb.i
	}
	return ca.j < cb.j
}
func (s *refCandSorter) Swap(a, b int) { s.cands[a], s.cands[b] = s.cands[b], s.cands[a] }

// newRefSelector builds a selector for a metro over the given members, probes
// and hitlist of target ASes.
func newRefSelector(g *asgraph.Graph, metro int, members []int, vps []VP, hitlist []int) *refSelector {
	n := len(members)
	s := &refSelector{
		G:            g,
		Metro:        metro,
		Members:      members,
		Index:        make(map[int]int, n),
		vps:          vps,
		hitlist:      map[int]bool{},
		penalty:      map[int][]float64{},
		entryPenalty: make([]float64, n*n),
		explored:     make([]bool, n*n),
		vpScore:      make([][]refCounter, n),
		vpCats:       make([][]refVPCat, n),
		tgtCats:      make([][]refTgtCat, n),
	}
	for i, as := range members {
		s.Index[as] = i
	}
	for _, t := range hitlist {
		s.hitlist[t] = true
	}
	// Informed default prior encoding what the paper's bootstrap phase
	// (§3.3.2) discovers: traceroutes from vantage points inside (or in
	// the customer cone of) the near-side AS, geographically close to the
	// metro, are far more likely to traverse the target interconnection;
	// probes elsewhere almost never do. The prior is soft (6 pseudo
	// trials) so per-metro evidence quickly dominates.
	for id := range s.stratSucc {
		st := StrategyFromID(id)
		p := 0.75 *
			[...]float64{1.0, 0.65, 0.4, 0.25}[st.VPGeo] *
			[...]float64{1.0, 0.6, 0.06}[st.VPTop] *
			[...]float64{1.0, 0.75, 0.55, 0.4}[st.TgtGeo] *
			[...]float64{1.0, 0.55, 0.9}[st.TgtTop]
		s.stratSucc[id] = p * 4
		s.stratTrial[id] = 4
	}
	return s
}

// InitPriors seeds the strategy statistics from success rates learned at
// other metros (the hierarchical partial-pooling prior of Appx. D.6).
// weight is the pseudo-trial count given to the prior.
func (s *refSelector) InitPriors(prior [NumStrategies]float64, weight float64) {
	for i := range s.stratSucc {
		s.stratSucc[i] = prior[i]*weight + 1
		s.stratTrial[i] = weight + 6
	}
}

// StrategyRates exports the current per-strategy success estimates, to be
// pooled into priors for new metros.
func (s *refSelector) StrategyRates() [NumStrategies]float64 {
	var out [NumStrategies]float64
	for i := range out {
		out[i] = s.stratSucc[i] / s.stratTrial[i]
	}
	return out
}

// BootstrapPlan samples up to perStrategy concrete measurements for every
// strategy that has available (vantage point, target) pairs, drawn from
// random member entries. Running the plan and reporting outcomes
// calibrates the initial per-strategy success probabilities (§3.3.2
// "Initial Estimation of P_m").
func (s *refSelector) BootstrapPlan(perStrategy, maxEntriesScanned int, rng *rand.Rand) []Measurement {
	n := len(s.Members)
	if n < 2 {
		return nil
	}
	counts := make([]int, NumStrategies)
	var plan []Measurement
	for scanned := 0; scanned < maxEntriesScanned; scanned++ {
		i := rng.Intn(n)
		j := rng.Intn(n)
		if i == j {
			continue
		}
		asI, asJ := s.Members[i], s.Members[j]
		vcats := s.vpCategories(i)
		tcats := s.targetsFor(j)
		for _, vc := range vcats {
			for _, tc := range tcats {
				id := vc.key*numTgtKeys + tc.key
				if counts[id] >= perStrategy {
					continue
				}
				counts[id]++
				plan = append(plan, Measurement{
					VP:     vc.vps[rng.Intn(len(vc.vps))],
					Target: tc.tgts[rng.Intn(len(tc.tgts))],
					LinkI:  asI, LinkJ: asJ,
					Strat: strategyFromKeys(vc.key, tc.key),
					P:     s.baseRate(id),
				})
			}
		}
	}
	return plan
}

// vpTopoOf categorizes a vantage point relative to AS i.
func (s *refSelector) vpTopoOf(vp VP, i int) VPTopo {
	if vp.AS == i {
		return VPInAS
	}
	if s.G.InCone(vp.AS, i) {
		return VPInCone
	}
	return VPOutside
}

// vpCategories returns the vantage points of member row i grouped by
// (geo, topo) category, as a dense list sorted by category key, cached.
func (s *refSelector) vpCategories(i int) []refVPCat {
	if c := s.vpCats[i]; c != nil {
		return c
	}
	asI := s.Members[i]
	byKey := map[int]int{} // key -> index into cats
	cats := []refVPCat{}
	for _, vp := range s.vps {
		geo := s.G.ScopeOfMetros(vp.Metro, s.Metro)
		topo := s.vpTopoOf(vp, asI)
		key := int(geo)*int(numVPTopo) + int(topo)
		ci, ok := byKey[key]
		if !ok {
			ci = len(cats)
			byKey[key] = ci
			cats = append(cats, refVPCat{key: key})
		}
		// Canonicalize duplicate VP values (two probes in the same AS at
		// the same metro) onto one score-table index, matching the
		// value-keyed scoring they'd share in a map.
		vi, _ := s.vpIndexOf(vp)
		cats[ci].vps = append(cats[ci].vps, vp)
		cats[ci].idxs = append(cats[ci].idxs, vi)
	}
	sort.Slice(cats, func(a, b int) bool { return cats[a].key < cats[b].key })
	s.vpCats[i] = cats
	return cats
}

// targetsFor enumerates candidate targets for the member at row j, grouped
// by (geo, topo) category as a dense list sorted by category key, cached.
// Targets outside the member's customer cone are not considered (§3.3.2);
// the AdjIXP category holds targets in the AS at the metro when it is a
// member of an IXP there.
func (s *refSelector) targetsFor(j int) []refTgtCat {
	if c := s.tgtCats[j]; c != nil {
		return c
	}
	asJ := s.Members[j]
	byKey := map[int]int{}
	cats := []refTgtCat{}
	add := func(t Target, topo TgtTopo) {
		geo := s.G.ScopeOfMetros(t.Metro, s.Metro)
		key := int(geo)*int(numTgtTopo) + int(topo)
		ci, ok := byKey[key]
		if !ok {
			ci = len(cats)
			byKey[key] = ci
			cats = append(cats, refTgtCat{key: key})
		}
		cats[ci].tgts = append(cats[ci].tgts, t)
	}
	if s.hitlist[asJ] {
		for _, m := range s.G.ASes[asJ].Metros {
			add(Target{AS: asJ, Metro: m}, TgtInAS)
			if m == s.Metro {
				for _, ix := range s.G.ASes[asJ].IXPs {
					if s.G.IXPs[ix].Metro == s.Metro {
						add(Target{AS: asJ, Metro: m}, TgtAdjIXP)
						break
					}
				}
			}
		}
	}
	// Direct customers stand in for the full cone (keeps enumeration
	// bounded; deeper cone members add little signal).
	for _, c32 := range s.G.Customers[asJ] {
		c := int(c32)
		if !s.hitlist[c] {
			continue
		}
		for _, m := range s.G.ASes[c].Metros {
			add(Target{AS: c, Metro: m}, TgtInCone)
		}
	}
	sort.Slice(cats, func(a, b int) bool { return cats[a].key < cats[b].key })
	s.tgtCats[j] = cats
	return cats
}

// baseRate returns the prior-informed success rate of a strategy.
func (s *refSelector) baseRate(id int) float64 {
	return s.stratSucc[id] / s.stratTrial[id]
}

// EntryProb returns P_ijm: the best estimated probability, over all
// strategies with available (vp, target) pairs, that a traceroute fills
// entry (i, j) — member-row indices. The second result is the best
// concrete measurement achieving it (freshly allocated; the batch
// selection loops use entryProb with a caller-owned slot instead).
func (s *refSelector) EntryProb(i, j int, rng *rand.Rand) (float64, *Measurement) {
	var m Measurement
	p := s.entryProb(i, j, rng, &m)
	if p == 0 {
		return 0, nil
	}
	return p, &m
}

// entryProb is the allocation-free core of EntryProb: it fills out with
// the best concrete measurement and returns its probability (0 when no
// measurement is possible, leaving out untouched).
func (s *refSelector) entryProb(i, j int, rng *rand.Rand, out *Measurement) float64 {
	asI, asJ := s.Members[i], s.Members[j]
	bestP := 0.0
	bestV, bestT := -1, -1
	vcats := s.vpCategories(i)
	tcats := s.targetsFor(j)
	entryPen := s.entryPenaltyFor(i, j)
	pens := s.penalty[i*len(s.Members)+j]
	for vi := range vcats {
		vc := &vcats[vi]
		vbase := vc.key * numTgtKeys
		nv := float64(len(vc.vps))
		for ti := range tcats {
			tc := &tcats[ti]
			id := vbase + tc.key
			pen := entryPen
			if pens != nil {
				if p := pens[id]; p != 0 {
					pen *= p
				}
			}
			avail := nv * float64(len(tc.tgts))
			boost := avail / (avail + 3)
			// The pool-size boost is a mild tie-breaker (§3.3.2), not a
			// driver: the learned per-strategy rate dominates.
			p := s.baseRate(id) * pen * (0.85 + 0.15*boost)
			if p > bestP {
				bestP = p
				bestV, bestT = vi, ti
			}
		}
	}
	if bestV < 0 {
		return 0
	}
	// Materialize the concrete measurement only for the winning category.
	vc := &vcats[bestV]
	tc := &tcats[bestT]
	*out = Measurement{
		VP:     s.pickVP(vc.vps, vc.idxs, i, rng),
		Target: tc.tgts[rng.Intn(len(tc.tgts))],
		LinkI:  asI, LinkJ: asJ,
		Strat: strategyFromKeys(vc.key, tc.key), P: bestP,
	}
	return bestP
}

func (s *refSelector) penaltyFor(i, j, strat int) float64 {
	if m := s.penalty[i*len(s.Members)+j]; m != nil {
		if p := m[strat]; p != 0 {
			return p
		}
	}
	return 1
}

func (s *refSelector) entryPenaltyFor(i, j int) float64 {
	if i > j {
		i, j = j, i
	}
	if p := s.entryPenalty[i*len(s.Members)+j]; p != 0 {
		return p
	}
	return 1
}

// pickVP selects a vantage point with probability proportional to its
// informativeness score for member row i (biased random, §3.3.2). idxs
// holds the VPs' indices into s.vps (parallel to vps) for the score table.
func (s *refSelector) pickVP(vps []VP, idxs []int32, i int, rng *rand.Rand) VP {
	if len(vps) == 1 {
		return vps[0]
	}
	// Large categories (hundreds of "elsewhere" probes) are sampled: a
	// biased pick among 24 random candidates behaves like the full scan
	// at a fraction of the cost.
	if len(vps) > 24 {
		if cap(s.sampleScratch) < 24 {
			s.sampleScratch = make([]VP, 24)
			s.idxScratch = make([]int32, 24)
		}
		sample, sidx := s.sampleScratch[:24], s.idxScratch[:24]
		for k := range sample {
			pick := rng.Intn(len(vps))
			sample[k] = vps[pick]
			sidx[k] = idxs[pick]
		}
		vps, idxs = sample, sidx
	}
	if cap(s.weightScratch) < len(vps) {
		s.weightScratch = make([]float64, len(vps))
	}
	weights := s.weightScratch[:len(vps)]
	total := 0.0
	scores := s.vpScore[i]
	for k := range vps {
		w := 0.2
		if scores != nil {
			if c := &scores[idxs[k]]; c.total > 0 {
				w += c.good / c.total
			}
		}
		weights[k] = w
		total += w
	}
	r := rng.Float64() * total
	for k, w := range weights {
		r -= w
		if r <= 0 {
			return vps[k]
		}
	}
	return vps[len(vps)-1]
}

// SelectBatch chooses up to size measurements using ε-greedy
// exploitation/exploration over rows that still need entries: need[i] is
// the number of additional entries row i requires (rows with need <= 0 are
// skipped). Fill state is updated optimistically within the batch.
//
// Ordered-commit contract: the returned batch order is significant. The
// measurement pipeline may execute the batch's traceroutes concurrently,
// but it calls Report (and consumes the selector's RNG) strictly in batch
// order, so the selector's statistics — and every batch SelectBatch
// chooses afterwards — are identical to a serial run.
func (s *refSelector) SelectBatch(size int, eps float64, rowFill []int, need []int, has func(i, j int) bool, rng *rand.Rand) []Measurement {
	n := len(s.Members)
	fill := append(s.fillScratch[:0], rowFill...)
	s.fillScratch = fill
	if s.pendingMark == nil {
		s.pendingMark = make([]bool, n*n)
		s.perRowScratch = make([]int, n)
	}
	pending := s.pendingMark
	perRow := s.perRowScratch
	for k := range perRow {
		perRow[k] = 0
	}
	var out []Measurement
	for len(out) < size {
		explore := rng.Float64() < eps
		var m *Measurement
		if explore {
			m = s.selectExplore(fill, need, has, pending, perRow, rng)
		}
		if m == nil {
			m = s.selectExploit(fill, need, has, pending, rng)
		}
		if m == nil {
			break // nothing measurable remains
		}
		i, j := s.Index[m.LinkI], s.Index[m.LinkJ]
		pending[i*n+j] = true
		pending[j*n+i] = true
		fill[i]++
		fill[j]++
		out = append(out, *m)
	}
	// Clear the pending marks this batch set (bounded by the batch size,
	// so clearing costs O(|out|), not O(n²)).
	for _, m := range out {
		i, j := s.Index[m.LinkI], s.Index[m.LinkJ]
		pending[i*n+j] = false
		pending[j*n+i] = false
	}
	return out
}

// selectExploit picks the row with the fewest filled entries that has some
// entry with P > 0.1, then the entry with the highest probability (§3.3.1).
func (s *refSelector) selectExploit(fill, need []int, has func(i, j int) bool, pending []bool, rng *rand.Rand) *Measurement {
	n := len(s.Members)
	order := s.rowsByFill(fill, need, rng)
	for _, i := range order {
		bestP := 0.1
		var best *Measurement
		for j := 0; j < n; j++ {
			if j == i || has(i, j) || pending[i*n+j] {
				continue
			}
			// A link can be measured from either side: probe near i
			// toward j, or near j toward i. Take the better orientation.
			p := s.entryProb(i, j, rng, &s.measureA)
			m := &s.measureA
			if p == 0 {
				m = nil
			}
			if p2 := s.entryProb(j, i, rng, &s.measureB); p2 > p {
				p, m = p2, &s.measureB
			}
			if p > bestP && m != nil {
				bestP = p
				s.measureBest = *m
				s.measureBest.P = p
				best = &s.measureBest
			}
		}
		if best != nil {
			return best
		}
	}
	return nil
}

// selectExplore picks the (i, j) minimizing fill[i]+fill[j] that has any
// possible measurement, capped at one exploration per row per batch and
// one per entry ever (§3.3.1).
func (s *refSelector) selectExplore(fill, need []int, has func(i, j int) bool, pending []bool, perRow []int, rng *rand.Rand) *Measurement {
	n := len(s.Members)
	cands := s.refCandSorter.cands[:0]
	for i := 0; i < n; i++ {
		if need[i] <= 0 || perRow[i] >= 1 {
			continue
		}
		for j := i + 1; j < n; j++ {
			if has(i, j) || pending[i*n+j] || s.explored[i*n+j] {
				continue
			}
			cands = append(cands, refExploreCand{i, j, fill[i] + fill[j]})
		}
	}
	s.refCandSorter.cands = cands
	if len(cands) == 0 {
		return nil
	}
	// The (sum, i, j) comparator is a total order (pairs are unique), so
	// an unstable sort yields the same permutation sort.Slice did.
	sort.Sort(&s.refCandSorter)
	// Walk candidates in order until one has a feasible measurement,
	// trying both orientations and keeping the better one.
	for _, c := range cands {
		p1 := s.entryProb(c.i, c.j, rng, &s.measureA)
		m := &s.measureA
		if p1 == 0 {
			m = nil
		}
		if p2 := s.entryProb(c.j, c.i, rng, &s.measureB); m == nil || (p2 != 0 && p2 > p1) {
			if p2 == 0 {
				m = nil
			} else {
				m = &s.measureB
			}
		}
		if m != nil {
			m.Exploration = true
			s.explored[c.i*n+c.j] = true
			perRow[c.i]++
			perRow[c.j]++
			return m
		}
	}
	return nil
}

// rowsByFill orders member rows that still need entries by increasing fill
// count, breaking ties randomly (§3.3.1). The returned slice is selector
// scratch, valid until the next call.
func (s *refSelector) rowsByFill(fill, need []int, rng *rand.Rand) []int {
	rows := s.rowSorter.rows[:0]
	for i := range fill {
		if need[i] > 0 {
			rows = append(rows, i)
		}
	}
	rng.Shuffle(len(rows), func(a, b int) { rows[a], rows[b] = rows[b], rows[a] })
	s.rowSorter.rows, s.rowSorter.fill = rows, fill
	sort.Stable(&s.rowSorter)
	return rows
}

// Report feeds back whether a measurement was informative for its target
// entry, updating strategy statistics, per-entry penalties and VP scores.
// Report is not safe for concurrent use and its call order shapes future
// SelectBatch decisions; the measurement pipeline therefore serializes
// Report calls on the committing goroutine, in batch order, even when the
// traceroutes themselves ran concurrently (see the ordered-commit contract
// on SelectBatch).
func (s *refSelector) Report(m Measurement, informative bool) {
	id := m.Strat.ID()
	s.stratTrial[id]++
	if informative {
		s.stratSucc[id]++
	}
	n := len(s.Members)
	i, okI := s.Index[m.LinkI]
	j, okJ := s.Index[m.LinkJ]
	if okI && okJ {
		a, b := i, j
		if a > b {
			a, b = b, a
		}
		if informative {
			if pens := s.penalty[i*n+j]; pens != nil {
				pens[id] = 0
			}
			s.entryPenalty[a*n+b] = 0
		} else {
			pens := s.penalty[i*n+j]
			if pens == nil {
				pens = make([]float64, NumStrategies)
				s.penalty[i*n+j] = pens
			}
			pens[id] = s.penaltyFor(i, j, id) * 0.5
			s.entryPenalty[a*n+b] = s.entryPenaltyFor(i, j) * 0.7
		}
	}
	if okI {
		scores := s.vpScore[i]
		if scores == nil {
			scores = make([]refCounter, len(s.vps))
			s.vpScore[i] = scores
		}
		if vi, ok := s.vpIndexOf(m.VP); ok {
			scores[vi].total++
			if informative {
				scores[vi].good++
			}
		}
	}
}

// vpIndexOf resolves a VP value back to its index in s.vps.
func (s *refSelector) vpIndexOf(vp VP) (int32, bool) {
	if s.vpIndex == nil {
		s.vpIndex = make(map[VP]int32, len(s.vps))
		for i, v := range s.vps {
			s.vpIndex[v] = int32(i)
		}
	}
	vi, ok := s.vpIndex[vp]
	return vi, ok
}

// goldenWorld builds a random selector world: metros spread over two
// countries per continent and two continents, ASes with random footprints
// and IXP memberships, a random provider DAG (so cones have depth), n
// members, a hitlist covering most ASes, and vantage points whose per-geo
// pools have the given sizes (plus a few duplicate VP values).
func goldenWorld(rng *rand.Rand, n int, geoPools [asgraph.NumGeoScopes]int) (*asgraph.Graph, []int, []VP, []int) {
	g := asgraph.NewGraph()
	g.Continents = []string{"EU", "NA"}
	g.Countries = []asgraph.Country{{Code: "NL", Continent: 0}, {Code: "DE", Continent: 0}, {Code: "US", Continent: 1}}
	// Metro 0 is the selector's metro; metros by scope relative to it.
	byScope := [asgraph.NumGeoScopes][]int{{0}, {1, 2}, {3, 4}, {5, 6}}
	countries := []int{0, 0, 0, 1, 1, 2, 2}
	for m, c := range countries {
		g.Metros = append(g.Metros, &asgraph.Metro{Index: m, Name: fmt.Sprintf("M%d", m), Country: c})
	}
	g.IXPs = []*asgraph.IXP{{Index: 0, Name: "IX0", Metro: 0}, {Index: 1, Name: "IX1", Metro: 3}}
	numAS := n + 5 + rng.Intn(n+1)
	for a := 0; a < numAS; a++ {
		metros := []int{0}
		for m := 1; m < len(countries); m++ {
			if rng.Intn(3) == 0 {
				metros = append(metros, m)
			}
		}
		as := &asgraph.AS{ASN: 1000 + a, Metros: metros}
		if rng.Intn(3) == 0 {
			as.IXPs = []int{0}
			g.IXPs[0].Members = append(g.IXPs[0].Members, a)
		}
		if rng.Intn(5) == 0 {
			as.IXPs = append(as.IXPs, 1)
			g.IXPs[1].Members = append(g.IXPs[1].Members, a)
		}
		g.AddAS(as)
	}
	for a := 1; a < numAS; a++ {
		for k := rng.Intn(3); k > 0; k-- {
			g.AddC2P(a, rng.Intn(a))
		}
	}
	members := rng.Perm(numAS)[:n]
	var hitlist []int
	for a := 0; a < numAS; a++ {
		if rng.Intn(4) != 0 {
			hitlist = append(hitlist, a)
		}
	}
	var vps []VP
	for geo, size := range geoPools {
		ms := byScope[geo]
		for k := 0; k < size; k++ {
			as := rng.Intn(numAS)
			if k%3 == 0 {
				as = members[rng.Intn(n)]
			}
			vps = append(vps, VP{AS: as, Metro: ms[rng.Intn(len(ms))]})
		}
	}
	for k := min(3, len(vps)); k > 0; k-- {
		vps = append(vps, vps[rng.Intn(len(vps))])
	}
	rng.Shuffle(len(vps), func(a, b int) { vps[a], vps[b] = vps[b], vps[a] })
	return g, members, vps, hitlist
}

// TestSelectorMatchesGoldenOracle drives the oracle and the Selector with
// twin RNGs through BootstrapPlan, EntryProb and many SelectBatch rounds
// with mixed informative and uninformative Reports, and requires the same
// measurements, the same RNG position after every call and the same
// final strategy rates. Every case runs twice: the Selector draws from a
// plain *rand.Rand (the per-draw replay), then from a Stream it was told
// about (the bulk skip), against the oracle's plain *rand.Rand.
func TestSelectorMatchesGoldenOracle(t *testing.T) {
	pools := [][asgraph.NumGeoScopes]int{
		{1, 1, 1, 1},     // singleton categories
		{2, 7, 13, 24},   // small categories, at the sampling edge
		{4, 16, 32, 64},  // powers of two, masked Int31n
		{3, 25, 40, 150}, // sampled categories with rejection
		{0, 0, 0, 9},     // empty scopes
	}
	ns := []int{3, 4, 9, 40, 120, 300}
	seed := int64(0)
	picks, explored := 0, 0
	for _, n := range ns {
		for pi, pool := range pools {
			for _, eps := range []float64{0, 0.1, 1} {
				if n == 300 && (pi%2 == 0 || eps == 1) {
					continue // the oracle is slow; two pools cover n=300
				}
				seed++
				t.Run(fmt.Sprintf("n=%d/pool=%d/eps=%v", n, pi, eps), func(t *testing.T) {
					for _, src := range []string{"rand", "stream"} {
						t.Run("src="+src, func(t *testing.T) {
							p, e := goldenRun(t, seed, n, pool, eps, src == "stream")
							picks, explored = picks+p, explored+e
						})
					}
				})
			}
		}
	}
	if picks < 2000 || explored < 200 {
		t.Fatalf("oracle runs chose %d measurements, %d explorations: too few to compare", picks, explored)
	}
}

// goldenRun compares one world and returns how many measurements the
// batches chose and how many of them were explorations. With stream set,
// the Selector draws from a Stream and is told so.
func goldenRun(t *testing.T, seed int64, n int, pool [asgraph.NumGeoScopes]int, eps float64, stream bool) (picks, explored int) {
	world := rand.New(rand.NewSource(seed))
	g, members, vps, hitlist := goldenWorld(world, n, pool)
	ref := newRefSelector(g, 0, members, vps, hitlist)
	sel := NewSelector(g, 0, members, vps, hitlist)
	if seed%3 == 0 {
		var prior [NumStrategies]float64
		for k := range prior {
			prior[k] = world.Float64()
		}
		ref.InitPriors(prior, 20)
		sel.InitPriors(prior, 20)
	}
	rngRef, rngSel := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
	if stream {
		st := NewStream(seed)
		rngSel = st.Rand()
		sel.UseStream(st)
	}
	sameStream := func(call string) {
		t.Helper()
		if a, b := rngRef.Int63(), rngSel.Int63(); a != b {
			t.Fatalf("%s: RNG streams diverged", call)
		}
	}
	sameBatch := func(call string, want, got []Measurement) {
		t.Helper()
		if len(want) != len(got) {
			t.Fatalf("%s: %d measurements, oracle %d", call, len(got), len(want))
		}
		for k := range want {
			if want[k] != got[k] {
				t.Fatalf("%s: measurement %d = %+v, oracle %+v", call, k, got[k], want[k])
			}
		}
		sameStream(call)
	}

	// Outcomes come from their own stream; informative links enter the
	// mask, as the pipeline's evidence refresh would add them.
	outcome := rand.New(rand.NewSource(seed + 1000))
	mask := make([]bool, n*n)
	has := func(i, j int) bool { return mask[i*n+j] }
	report := func(batch []Measurement) {
		for _, m := range batch {
			inf := outcome.Intn(3) == 0
			ref.Report(m, inf)
			sel.Report(m, inf)
			if inf {
				i, j := sel.Index[m.LinkI], sel.Index[m.LinkJ]
				mask[i*n+j], mask[j*n+i] = true, true
			}
		}
	}

	plan := ref.BootstrapPlan(2, 60, rngRef)
	sameBatch("BootstrapPlan", plan, sel.BootstrapPlan(2, 60, rngSel))
	report(plan)

	fill, need := make([]int, n), make([]int, n)
	for round := 0; round < 12; round++ {
		for i := range fill {
			fill[i] = 0
			for j := 0; j < n; j++ {
				if mask[i*n+j] {
					fill[i]++
				}
			}
			need[i] = 0
			if outcome.Intn(3) != 0 {
				need[i] = 1 + outcome.Intn(3)
			}
		}
		size := 1 + outcome.Intn(min(2*n, 150))
		want := ref.SelectBatch(size, eps, fill, need, has, rngRef)
		got := sel.SelectBatch(size, eps, fill, need, has, rngSel)
		sameBatch(fmt.Sprintf("SelectBatch round %d", round), want, got)
		report(got)
		picks += len(got)
		for _, m := range got {
			if m.Exploration {
				explored++
			}
		}

		i, j := outcome.Intn(n), outcome.Intn(n)
		pw, mw := ref.EntryProb(i, j, rngRef)
		pg, mg := sel.EntryProb(i, j, rngSel)
		if pw != pg || (mw == nil) != (mg == nil) || (mw != nil && *mw != *mg) {
			t.Fatalf("EntryProb(%d, %d) = %v %+v, oracle %v %+v", i, j, pg, mg, pw, mw)
		}
		sameStream("EntryProb")
	}
	if ref.StrategyRates() != sel.StrategyRates() {
		t.Fatalf("strategy rates diverged")
	}
	return picks, explored
}
