// Package probe implements metAScritic's targeted-measurement machinery
// (§3.3): the categorization of vantage points and targets into 144
// measurement strategies, the per-link success-probability matrix P_m, the
// ε-greedy exploitation/exploration batch selection, per-vantage-point
// scoring, and the hierarchical cross-metro prior of Appx. D.6.
//
// The selector is the inner loop of a whole run, so its cost follows what
// it decides rather than everything it looks at. Choosing a measurement
// is split in two:
//
//   - score(i, j) is RNG-free. It rates every (VP category, target
//     category) strategy available to the ordered pair and returns the
//     best P with its winning categories. Nothing changes a score between
//     two Report calls. A pair without penalties scores by its class
//     alone: row i's VP signature (the keys and sizes of its VP
//     categories) and row j's target signature, which hundreds of rows
//     share at a large metro. So SelectBatch scores each class at most
//     once per batch (a signature × signature memo stamped with a batch
//     generation), and scores a penalized pair directly.
//   - Once the scores name the winner, the RNG draws that evaluating the
//     scanned pairs has always made — per orientation with a possible
//     measurement, pickVP's 24 sampled Intn (categories above 24 VPs) and
//     its Float64, then the target's Intn — are replayed in the same order.
//     Only the winner turns its draws into a VP and a target; every other
//     pair just advances the stream. With a Stream (UseStream) the pairs
//     before the winner and those after it are each skipped in one scan of
//     the stream's buffer; otherwise, and from any output a draw might
//     reject, draw by draw (skipPairs). A row whose scan finds no winner
//     draws the same run at every later pick of the batch that leaves it
//     alone, so with a Stream it is skipped whole, without a rescan.
//
// Exploration walks fill sums upward over rows bucketed by fill instead
// of sorting all open pairs, and rows are ordered by a stable counting
// sort. Per-pair state is dense where it is dense (exploration marks) and
// sparse where it is sparse: per row, sorted lists of its penalized
// pairs, and VP categories that share one VP list per geo scope instead
// of copying it per row.
//
// Byte-identity contract: for a given seed, every batch, every RNG draw
// and every Measurement equals what the original per-pair selector
// produced; golden_test.go keeps that code verbatim as the oracle. A
// Selector is not safe for concurrent use (and never was: Report's call
// order shapes future batches).
package probe

import (
	"cmp"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"sort"

	"metascritic/internal/asgraph"
)

// VP is a vantage point: a probe hosted by an AS at a metro.
type VP struct {
	AS    int
	Metro int
}

// VPTopo is the topological relation of a vantage point to the near-side
// AS i of a link.
type VPTopo uint8

// Vantage-point topological categories.
const (
	VPInAS VPTopo = iota
	VPInCone
	VPOutside
	numVPTopo
)

// TgtTopo is the topological relation of a target to the far-side AS j.
type TgtTopo uint8

// Target topological categories. TgtAdjIXP replaces "outside the cone"
// for targets: addresses adjacent to an IXP in the metro (§3.3.2).
const (
	TgtInAS TgtTopo = iota
	TgtInCone
	TgtAdjIXP
	numTgtTopo
)

// Strategy is one of the 144 (vantage-point category, target category)
// combinations.
type Strategy struct {
	VPGeo  asgraph.GeoScope
	VPTop  VPTopo
	TgtGeo asgraph.GeoScope
	TgtTop TgtTopo
}

// NumStrategies is the total number of measurement strategies.
const NumStrategies = int(asgraph.NumGeoScopes) * int(numVPTopo) * int(asgraph.NumGeoScopes) * int(numTgtTopo)

// numTgtKeys is the number of distinct target category keys; a strategy ID
// factors as vpKey*numTgtKeys + tgtKey (see ID), which the hot path uses
// to combine cached category keys without rebuilding Strategy values.
const numTgtKeys = int(asgraph.NumGeoScopes) * int(numTgtTopo)

// ID returns the strategy's dense index in [0, NumStrategies).
func (s Strategy) ID() int {
	return ((int(s.VPGeo)*int(numVPTopo)+int(s.VPTop))*int(asgraph.NumGeoScopes)+int(s.TgtGeo))*int(numTgtTopo) + int(s.TgtTop)
}

// StrategyFromID inverts ID.
func StrategyFromID(id int) Strategy {
	tt := id % int(numTgtTopo)
	id /= int(numTgtTopo)
	tg := id % int(asgraph.NumGeoScopes)
	id /= int(asgraph.NumGeoScopes)
	vt := id % int(numVPTopo)
	id /= int(numVPTopo)
	return Strategy{VPGeo: asgraph.GeoScope(id), VPTop: VPTopo(vt), TgtGeo: asgraph.GeoScope(tg), TgtTop: TgtTopo(tt)}
}

// strategyFromKeys rebuilds the Strategy of a (vpKey, tgtKey) category
// pair; equivalent to StrategyFromID(vkey*numTgtKeys+tkey).
func strategyFromKeys(vkey, tkey int) Strategy {
	return Strategy{
		VPGeo:  asgraph.GeoScope(vkey / int(numVPTopo)),
		VPTop:  VPTopo(vkey % int(numVPTopo)),
		TgtGeo: asgraph.GeoScope(tkey / int(numTgtTopo)),
		TgtTop: TgtTopo(tkey % int(numTgtTopo)),
	}
}

// Target is a candidate traceroute destination: an address in AS at metro.
type Target struct {
	AS    int
	Metro int
}

// Measurement is one proposed traceroute.
type Measurement struct {
	VP          VP
	Target      Target
	LinkI       int // near-side member AS (graph index)
	LinkJ       int // far-side member AS
	Strat       Strategy
	P           float64 // estimated probability of being informative
	Exploration bool
}

// vpCat is one non-empty vantage-point category of a member row. Its VPs
// are indices into Selector.vps, in vps order. The in-AS and in-cone
// categories are small and list them (own). The outside category of a geo
// scope is that scope's selector-wide VP list (geo) minus the row's in-AS
// and in-cone VPs, which it records as sorted positions into geo (ex), so
// no row copies the hundreds of probes outside it.
type vpCat struct {
	key    int
	n      int    // number of VPs in the category
	accept uint64 // largest Int63 output Intn(n) accepts (intnBound)
	draws  int    // RNG draws pickVP makes on the category
	low    uint64 // lowest of those draws' bounds; int63Mask for none
	own    []int32
	geo    []int32
	ex     []int32
}

// newVPCat returns the category of n VPs with its draw profile: pickVP
// draws 24 Intn(n) above 24 VPs, then a Float64 unless the category is a
// single VP.
func newVPCat(key, n int, own, geo, ex []int32) vpCat {
	c := vpCat{key: key, n: n, accept: intnBound(n), low: int63Mask, own: own, geo: geo, ex: ex}
	if n > 24 {
		c.draws, c.low = 24, c.accept
	}
	if n > 1 {
		c.draws++
		c.low = min(c.low, floatBound)
	}
	return c
}

// at returns the Selector.vps index of the category's k-th VP.
func (c *vpCat) at(k int) int32 {
	if c.own != nil {
		return c.own[k]
	}
	// ex[m]-m kept VPs precede the m-th exclusion, a nondecreasing count,
	// so the k-th kept VP follows exactly the exclusions with ex[m]-m <= k.
	m := sort.Search(len(c.ex), func(m int) bool { return int(c.ex[m])-m > k })
	return c.geo[k+m]
}

// tgtCat is one non-empty target category of a member row.
type tgtCat struct {
	key    int
	accept uint64 // largest Int63 output Intn(len(tgts)) accepts
	tgts   []Target
}

// vpCount tracks the informative/total outcomes of one VP (a canonical
// vps index) for a member row.
type vpCount struct{ vp, good, total int32 }

// stratPen is the penalty factor of one strategy at an ordered pair.
type stratPen struct {
	id uint8
	f  float64
}

// pairPen is the penalty state of the pair of a row and its column j: the
// entry-wide factor of the unordered pair (1: none), and the penalized
// strategies of the ordered pairs (row, j) and (j, row), each list sorted
// by id (a missing strategy has factor 1). Row j keeps the mirror record,
// with out and in swapped.
type pairPen struct {
	j       int32
	entry   float64
	out, in []stratPen
}

// noPen is the state of a pair without penalties.
var noPen = pairPen{entry: 1}

// pairScore is score(i, j): the best P and the winning VP and target
// category indices (v < 0: no possible measurement). In the class memo,
// gen is the batch that computed it.
type pairScore struct {
	p    float64
	gen  uint32
	v, t int8
}

// Selector chooses measurements for one metro. It sees only public data:
// the AS graph (relationships, footprints, IXP membership), probe
// locations, and a hitlist of probe-able targets. A Selector is not safe
// for concurrent use.
type Selector struct {
	G     *asgraph.Graph
	Metro int
	// Members are the ASes of the connectivity matrix, row order.
	Members []int
	Index   map[int]int

	vps []VP
	// hitlist lists believed-responsive target ASes (ISI hitlist analog).
	hitlist map[int]bool

	// Strategy-level statistics (Beta-style pseudo-counts) and their
	// ratio, kept current so that scoring does not divide.
	stratSucc  [NumStrategies]float64
	stratTrial [NumStrategies]float64
	rate       [NumStrategies]float64

	// Per-entry penalties: repeated uninformative attempts at the same
	// entry with the same strategy halve its probability (§3.3.2), and a
	// milder entry-wide factor discourages cycling through strategies on
	// an elusive link. penalties[i] lists the penalized pairs of row i,
	// sorted by column, so a row scan walks them alongside its columns.
	penalties [][]pairPen
	// explored marks entries that spent their one exploration attempt
	// (unordered, i<j).
	explored []bool

	// VP scoring: per member row, the informative/total counts of the VPs
	// reported for it, sorted by vp index: a row holds the few VPs that
	// measured it, not a slot for every probe. vpIndex resolves a
	// VP value back to its index in vps; canon maps each vps index to that
	// index, so duplicate VP values (two probes in the same AS at the same
	// metro) share one score slot. geoVPs lists the vps indices of each
	// geo scope in vps order, the shared backing of every row's outside
	// categories. All three are built on first use.
	vpScore [][]vpCount
	vpIndex map[VP]int32
	canon   []int32
	geoVPs  [asgraph.NumGeoScopes][]int32

	// Cached per-member-row VP and target categorizations as dense lists
	// sorted by category key (map iteration order is random; the hot
	// path must be deterministic and cannot afford re-sorting).
	vpCats  [][]vpCat
	tgtCats [][]tgtCat

	// Score classes, built on the first SelectBatch: vsig[i] numbers row
	// i's VP signature and tsig[j] row j's target signature, among nts
	// target signatures.
	vsig, tsig []int32
	nts        int
	// coneMark marks the customer cone of the row vpCategories is
	// building: AS a is in it when coneMark[a] == coneEpoch.
	coneMark  []uint32
	coneEpoch uint32

	// Batch-scoped scratch, reused across SelectBatch calls (one Selector
	// serves one goroutine). classScores is the class memo, indexed by
	// vsig*nts+tsig; an entry is valid while its gen equals gen, which
	// every batch advances. dead[i] is the draw run of row i's last
	// exploit scan that found no winner, valid while deadGen[i] == gen.
	classScores   []pairScore
	gen           uint32
	dead          []drawRun
	deadGen       []uint32
	fillScratch   []int
	pendingMark   []bool // n×n: entry already chosen in this batch
	perRowScratch []int  // explorations per row in this batch
	rowScratch    []int
	rowIDs        []int
	eligScratch   []int
	colScratch    []int
	fillStart     []int
	fillNext      []int
	fillSorted    []int
	sampleScratch []int32
	weightScratch []float64

	// stream, when set, is the source behind the *rand.Rand the caller
	// passes; skipPairs scans it directly (UseStream).
	stream *Stream

	// deadSkips counts dead-row skips, and deadRescans those of them that
	// stopped at an output a draw might reject (observed by tests).
	deadSkips, deadRescans int
}

// NewSelector builds a selector for a metro over the given members, probes
// and hitlist of target ASes.
func NewSelector(g *asgraph.Graph, metro int, members []int, vps []VP, hitlist []int) *Selector {
	n := len(members)
	s := &Selector{
		G:         g,
		Metro:     metro,
		Members:   members,
		Index:     make(map[int]int, n),
		vps:       vps,
		hitlist:   map[int]bool{},
		penalties: make([][]pairPen, n),
		explored:  make([]bool, n*n),
		vpScore:   make([][]vpCount, n),
		vpCats:    make([][]vpCat, n),
		tgtCats:   make([][]tgtCat, n),
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
		s.rate[id] = s.stratSucc[id] / s.stratTrial[id]
	}
	return s
}

// InitPriors seeds the strategy statistics from success rates learned at
// other metros (the hierarchical partial-pooling prior of Appx. D.6).
// weight is the pseudo-trial count given to the prior.
func (s *Selector) InitPriors(prior [NumStrategies]float64, weight float64) {
	for i := range s.stratSucc {
		s.stratSucc[i] = prior[i]*weight + 1
		s.stratTrial[i] = weight + 6
		s.rate[i] = s.stratSucc[i] / s.stratTrial[i]
	}
}

// StrategyRates exports the current per-strategy success estimates, to be
// pooled into priors for new metros.
func (s *Selector) StrategyRates() [NumStrategies]float64 {
	return s.rate
}

// BootstrapPlan samples up to perStrategy concrete measurements for every
// strategy that has available (vantage point, target) pairs, drawn from
// random member entries. Running the plan and reporting outcomes
// calibrates the initial per-strategy success probabilities (§3.3.2
// "Initial Estimation of P_m").
func (s *Selector) BootstrapPlan(perStrategy, maxEntriesScanned int, rng *rand.Rand) []Measurement {
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
		for vi := range vcats {
			vc := &vcats[vi]
			for _, tc := range tcats {
				id := vc.key*numTgtKeys + tc.key
				if counts[id] >= perStrategy {
					continue
				}
				counts[id]++
				plan = append(plan, Measurement{
					VP:     s.vps[vc.at(rng.Intn(vc.n))],
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

// indexVPs builds vpIndex, canon and geoVPs on first use.
func (s *Selector) indexVPs() {
	if s.vpIndex != nil {
		return
	}
	s.vpIndex = make(map[VP]int32, len(s.vps))
	for i, v := range s.vps {
		s.vpIndex[v] = int32(i)
	}
	s.canon = make([]int32, len(s.vps))
	for i, v := range s.vps {
		s.canon[i] = s.vpIndex[v]
		geo := s.G.ScopeOfMetros(v.Metro, s.Metro)
		s.geoVPs[geo] = append(s.geoVPs[geo], int32(i))
	}
}

// vpCategories returns the vantage points of member row i grouped by
// (geo, topo) category, as a dense list sorted by category key, cached.
func (s *Selector) vpCategories(i int) []vpCat {
	if c := s.vpCats[i]; c != nil {
		return c
	}
	s.indexVPs()
	asI := s.Members[i]
	if s.coneMark == nil {
		s.coneMark = make([]uint32, s.G.N())
	}
	if s.coneEpoch++; s.coneEpoch == 0 {
		clear(s.coneMark)
		s.coneEpoch = 1
	}
	for _, a := range s.G.CustomerCone(asI) {
		s.coneMark[a] = s.coneEpoch
	}
	cats := []vpCat{}
	for geo, all := range s.geoVPs {
		var inAS, inCone, ex []int32
		for pos, vi := range all {
			// A VP is in-AS, else in-cone when its AS is in asI's
			// customer cone, else outside.
			as := s.vps[vi].AS
			if as == asI {
				inAS = append(inAS, vi)
			} else if s.coneMark[as] == s.coneEpoch {
				inCone = append(inCone, vi)
			} else {
				continue
			}
			ex = append(ex, int32(pos))
		}
		key := geo * int(numVPTopo)
		// Indexed by topo: VPInAS, then VPInCone.
		for topo, own := range [...][]int32{inAS, inCone} {
			if len(own) > 0 {
				cats = append(cats, newVPCat(key+topo, len(own), own, nil, nil))
			}
		}
		if k := len(all) - len(ex); k > 0 {
			cats = append(cats, newVPCat(key+int(VPOutside), k, nil, all, ex))
		}
	}
	s.vpCats[i] = cats
	return cats
}

// targetsFor enumerates candidate targets for the member at row j, grouped
// by (geo, topo) category as a dense list sorted by category key, cached.
// Targets outside the member's customer cone are not considered (§3.3.2);
// the AdjIXP category holds targets in the AS at the metro when it is a
// member of an IXP there.
func (s *Selector) targetsFor(j int) []tgtCat {
	if c := s.tgtCats[j]; c != nil {
		return c
	}
	asJ := s.Members[j]
	byKey := map[int]int{}
	cats := []tgtCat{}
	add := func(t Target, topo TgtTopo) {
		geo := s.G.ScopeOfMetros(t.Metro, s.Metro)
		key := int(geo)*int(numTgtTopo) + int(topo)
		ci, ok := byKey[key]
		if !ok {
			ci = len(cats)
			byKey[key] = ci
			cats = append(cats, tgtCat{key: key})
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
	for k := range cats {
		cats[k].accept = intnBound(len(cats[k].tgts))
	}
	s.tgtCats[j] = cats
	return cats
}

// baseRate returns the prior-informed success rate of a strategy.
func (s *Selector) baseRate(id int) float64 {
	return s.rate[id]
}

// EntryProb returns P_ijm: the best estimated probability, over all
// strategies with available (vp, target) pairs, that a traceroute fills
// entry (i, j) — member-row indices. The second result is the best
// concrete measurement achieving it (nil when none is possible).
func (s *Selector) EntryProb(i, j int, rng *rand.Rand) (float64, *Measurement) {
	p, v, t := s.score(i, j)
	if v < 0 {
		return 0, nil
	}
	m := s.materialize(i, j, p, v, t, rng)
	return p, &m
}

// score rates every (VP category, target category) strategy available to
// the ordered pair (i, j) and returns the best P with the indices of its
// winning categories (first in key order on ties; v = t = -1 and P = 0
// when the pair has no possible measurement). It draws nothing from the
// RNG, so a batch can score a pair once and replay its draws later.
func (s *Selector) score(i, j int) (bestP float64, bestV, bestT int) {
	pp := s.pairOf(i, j)
	return s.scoreWith(i, j, pp.entry, pp.out)
}

// scoreWith is score given the pair's entry factor and strategy penalties.
func (s *Selector) scoreWith(i, j int, entryPen float64, pens []stratPen) (bestP float64, bestV, bestT int) {
	bestV, bestT = -1, -1
	vcats := s.vpCategories(i)
	tcats := s.targetsFor(j)
	for vi := range vcats {
		vc := &vcats[vi]
		vbase := vc.key * numTgtKeys
		nv := float64(vc.n)
		for ti := range tcats {
			tc := &tcats[ti]
			id := vbase + tc.key
			// Strategy ids rise with (vi, ti), so the sorted penalty list
			// is merge-walked alongside.
			pen := entryPen
			for len(pens) > 0 && int(pens[0].id) < id {
				pens = pens[1:]
			}
			if len(pens) > 0 && int(pens[0].id) == id {
				pen *= pens[0].f
			}
			// The pool-size boost is a mild tie-breaker (§3.3.2), not a
			// driver: the learned per-strategy rate dominates. Its factor
			// is below 1, so a rate·pen that cannot beat bestP skips it.
			rp := s.rate[id] * pen
			if rp <= bestP {
				continue
			}
			avail := nv * float64(len(tc.tgts))
			boost := avail / (avail + 3)
			p := rp * (0.85 + 0.15*boost)
			if p > bestP {
				bestP = p
				bestV, bestT = vi, ti
			}
		}
	}
	return bestP, bestV, bestT
}

// materialize builds the measurement of ordered pair (i, j) from its
// winning categories v and t, drawing a biased VP and then a target.
func (s *Selector) materialize(i, j int, p float64, v, t int, rng *rand.Rand) Measurement {
	vc := &s.vpCats[i][v]
	tc := &s.tgtCats[j][t]
	return Measurement{
		VP:     s.pickVP(vc, i, rng),
		Target: tc.tgts[rng.Intn(len(tc.tgts))],
		LinkI:  s.Members[i], LinkJ: s.Members[j],
		Strat: strategyFromKeys(vc.key, tc.key), P: p,
	}
}

// intnBound returns the largest Int63 output that math/rand's Intn(n)
// accepts, for n at most MaxInt32: Int31n redraws Int31 (the output's top
// 31 bits) while it exceeds 2³¹ - 1 - 2³¹ mod n, and masks a power of two,
// whose bound is then MaxInt32. The Go 1 compatibility promise freezes
// this rejection loop along with the rest of math/rand's value stream.
func intnBound(n int) uint64 {
	lim := uint64((1 << 31) - 1 - (1<<31)%uint32(n))
	return lim<<32 | 1<<32 - 1
}

// skipIntn advances rng exactly as rng.Intn(n) does, for the n that
// accept was computed from, without the modulo.
func skipIntn(rng *rand.Rand, accept uint64) {
	for uint64(rng.Int63()) > accept {
	}
}

// skipFrom advances rng exactly as measuring with categories vc and tc
// does (pickVP, then the target's Intn), except for its first done draws,
// which were taken already. It returns what is left of done for the draws
// that follow: done minus this measurement's draws, or 0.
func skipFrom(vc *vpCat, tc *tgtCat, done int, rng *rand.Rand) int {
	if d := vc.draws + 1; done >= d {
		return done - d
	}
	ints := 0
	if vc.n > 24 {
		ints = 24
	}
	for k := done; k < ints; k++ {
		skipIntn(rng, vc.accept)
	}
	if vc.n > 1 && done <= ints {
		rng.Float64()
	}
	skipIntn(rng, tc.accept)
	return 0
}

func (s *Selector) penaltyFor(i, j, strat int) float64 {
	return factorOf(s.pairOf(i, j).out, strat)
}

// factorOf returns strategy id's factor in a sorted penalty list: 1 when
// it is not penalized.
func factorOf(pens []stratPen, id int) float64 {
	if k, ok := findPen(pens, id); ok {
		return pens[k].f
	}
	return 1
}

// penOf returns row i's penalty record of column j, nil when the pair has
// no penalty.
func (s *Selector) penOf(i, j int) *pairPen {
	row := s.penalties[i]
	if len(row) == 0 {
		return nil
	}
	if k, ok := findCol(row, j); ok {
		return &row[k]
	}
	return nil
}

// pairOf returns the penalty state of ordered pair (i, j).
func (s *Selector) pairOf(i, j int) pairPen {
	if pp := s.penOf(i, j); pp != nil {
		return *pp
	}
	return noPen
}

// findCol returns the position of column j in a row's penalty list, or
// where it would be inserted, and whether it is there.
func findCol(row []pairPen, j int) (int, bool) {
	return slices.BinarySearchFunc(row, int32(j), func(p pairPen, j int32) int { return cmp.Compare(p.j, j) })
}

// setPenalty sets the factor of strategy id at ordered-pair key (i*n+j);
// a factor of 0 means no penalty and removes it.
func (s *Selector) setPenalty(key, id int, f float64) {
	n := len(s.Members)
	i, j := key/n, key%n
	pp := s.pairOf(i, j)
	s.setPair(i, j, pp.entry, withPen(pp.out, id, f), pp.in)
}

// withPen returns pens with strategy id's factor set to f; a factor of 0
// removes it. It may reuse pens' storage.
func withPen(pens []stratPen, id int, f float64) []stratPen {
	k, found := findPen(pens, id)
	switch {
	case f == 0 && !found:
	case f == 0 && len(pens) == 1:
		return nil
	case f == 0:
		pens = slices.Delete(pens, k, k+1)
	case found:
		pens[k].f = f
	default:
		pens = slices.Insert(pens, k, stratPen{id: uint8(id), f: f})
	}
	return pens
}

// setPair stores pair {i, j}'s entry factor and the penalties of (i, j)
// (out) and (j, i) (in) in row i's record and, mirrored, in row j's. A
// pair left with no penalty loses both records.
func (s *Selector) setPair(i, j int, entry float64, out, in []stratPen) {
	if i == j {
		in = out
	}
	s.putPen(i, pairPen{j: int32(j), entry: entry, out: out, in: in})
	if i != j {
		s.putPen(j, pairPen{j: int32(i), entry: entry, out: in, in: out})
	}
}

func (s *Selector) putPen(i int, pp pairPen) {
	row := s.penalties[i]
	k, found := findCol(row, int(pp.j))
	none := pp.entry == 1 && len(pp.out) == 0 && len(pp.in) == 0
	switch {
	case none && found:
		s.penalties[i] = slices.Delete(row, k, k+1)
	case none:
	case found:
		row[k] = pp
	default:
		s.penalties[i] = slices.Insert(row, k, pp)
	}
}

// findPen returns the position of strategy id in a sorted penalty list, or
// where it would be inserted, and whether it is there.
func findPen(pens []stratPen, id int) (int, bool) {
	return slices.BinarySearchFunc(pens, id, func(p stratPen, id int) int { return cmp.Compare(int(p.id), id) })
}

// pickVP selects a vantage point of category vc with probability
// proportional to its informativeness score for member row i (biased
// random, §3.3.2).
func (s *Selector) pickVP(vc *vpCat, i int, rng *rand.Rand) VP {
	if vc.n == 1 {
		return s.vps[vc.at(0)]
	}
	// Large categories (hundreds of "elsewhere" probes) are sampled: a
	// biased pick among 24 random candidates behaves like the full scan
	// at a fraction of the cost.
	sample := s.sampleScratch[:0]
	if vc.n > 24 {
		for k := 0; k < 24; k++ {
			sample = append(sample, vc.at(rng.Intn(vc.n)))
		}
	} else {
		for k := 0; k < vc.n; k++ {
			sample = append(sample, vc.at(k))
		}
	}
	s.sampleScratch = sample
	if cap(s.weightScratch) < len(sample) {
		s.weightScratch = make([]float64, len(sample))
	}
	weights := s.weightScratch[:len(sample)]
	total := 0.0
	scores := s.vpScore[i]
	for k, vi := range sample {
		w := 0.2
		if len(scores) > 0 {
			if c, ok := findVPCount(scores, s.canon[vi]); ok {
				w += float64(scores[c].good) / float64(scores[c].total)
			}
		}
		weights[k] = w
		total += w
	}
	r := rng.Float64() * total
	for k, w := range weights {
		r -= w
		if r <= 0 {
			return s.vps[sample[k]]
		}
	}
	return s.vps[sample[len(sample)-1]]
}

// UseStream tells the selector that st is the source behind the rng it
// will be passed (st.Rand()), so replayed draws skip through st in bulk.
// A SelectBatch passed any other *rand.Rand replays draw by draw.
func (s *Selector) UseStream(st *Stream) { s.stream = st }

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
func (s *Selector) SelectBatch(size int, eps float64, rowFill []int, need []int, has func(i, j int) bool, rng *rand.Rand) []Measurement {
	n := len(s.Members)
	fill := append(s.fillScratch[:0], rowFill...)
	s.fillScratch = fill
	if s.pendingMark == nil {
		s.pendingMark = make([]bool, n*n)
		s.perRowScratch = make([]int, n)
		s.dead = make([]drawRun, n)
		s.deadGen = make([]uint32, n)
		s.classify()
	}
	// Reports since the last batch may have changed any score.
	if s.gen++; s.gen == 0 {
		clear(s.classScores)
		clear(s.deadGen)
		s.gen = 1
	}
	pending := s.pendingMark
	perRow := s.perRowScratch
	for k := range perRow {
		perRow[k] = 0
	}
	var out []Measurement
	for len(out) < size {
		explore := rng.Float64() < eps
		var m Measurement
		ok := false
		if explore {
			m, ok = s.selectExplore(fill, need, has, pending, perRow, rng)
		}
		if !ok {
			m, ok = s.selectExploit(fill, need, has, pending, rng)
		}
		if !ok {
			break // nothing measurable remains
		}
		i, j := s.Index[m.LinkI], s.Index[m.LinkJ]
		pending[i*n+j] = true
		pending[j*n+i] = true
		// Both rows lost an open column, so their dead runs are stale.
		s.deadGen[i], s.deadGen[j] = 0, 0
		fill[i]++
		fill[j]++
		out = append(out, m)
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

// classify numbers every row's VP signature (the key and size of each of
// its VP categories, in order) and target signature (the key and target
// count of each target category) and sizes the class memo. Two rows with
// the same VP signature have the same category indices, so a class memo
// entry's v and t hold for every pair of its class.
func (s *Selector) classify() {
	n := len(s.Members)
	s.vsig, s.tsig = make([]int32, n), make([]int32, n)
	vids, tids := map[string]int32{}, map[string]int32{}
	var key []byte
	id := func(ids map[string]int32, key []byte) int32 {
		v, ok := ids[string(key)]
		if !ok {
			v = int32(len(ids))
			ids[string(key)] = v
		}
		return v
	}
	for i := 0; i < n; i++ {
		key = key[:0]
		for _, c := range s.vpCategories(i) {
			key = binary.AppendUvarint(binary.AppendUvarint(key, uint64(c.key)), uint64(c.n))
		}
		s.vsig[i] = id(vids, key)
		key = key[:0]
		for _, c := range s.targetsFor(i) {
			key = binary.AppendUvarint(binary.AppendUvarint(key, uint64(c.key)), uint64(len(c.tgts)))
		}
		s.tsig[i] = id(tids, key)
	}
	s.nts = len(tids)
	s.classScores = make([]pairScore, len(vids)*len(tids))
}

// memo returns the batch's score of ordered pair (i, j).
func (s *Selector) memo(i, j int) pairScore {
	return s.memoPen(i, j, s.penOf(i, j), false)
}

// memoPen is memo given pp, the penalty record of row i at column j (nil:
// none), or with in set, the record of row j at column i. A penalized
// pair is scored directly; any other scores as its class, which is scored
// on first use.
func (s *Selector) memoPen(i, j int, pp *pairPen, in bool) pairScore {
	if pp != nil {
		pens := pp.out
		if in {
			pens = pp.in
		}
		p, v, t := s.scoreWith(i, j, pp.entry, pens)
		return pairScore{p: p, v: int8(v), t: int8(t)}
	}
	e := &s.classScores[int(s.vsig[i])*s.nts+int(s.tsig[j])]
	if e.gen != s.gen {
		p, v, t := s.scoreWith(i, j, 1, nil)
		*e = pairScore{p: p, gen: s.gen, v: int8(v), t: int8(t)}
	}
	return *e
}

// drawPair measures link (i, j) from the better side — orientation (i, j)
// on ties — replaying the draws of both sides in order, (i, j) then
// (j, i), each only when it has a possible measurement: the better side
// materializes, the other only advances the stream.
func (s *Selector) drawPair(i, j int, rng *rand.Rand) Measurement {
	a, b := s.memo(i, j), s.memo(j, i)
	if b.p > a.p {
		s.skipSide(i, j, a, 0, rng)
		return s.materialize(j, i, b.p, int(b.v), int(b.t), rng)
	}
	m := s.materialize(i, j, a.p, int(a.v), int(a.t), rng)
	s.skipSide(j, i, b, 0, rng)
	return m
}

// drawRun is a run of consecutive single-output RNG draws: how many, and
// the lowest bound at which one of them accepts its output.
type drawRun struct {
	draws int
	bound uint64
}

// noDraws is the empty run.
var noDraws = drawRun{bound: int63Mask}

func (r drawRun) plus(o drawRun) drawRun {
	return drawRun{r.draws + o.draws, min(r.bound, o.bound)}
}

// sideRun returns the draws of measuring orientation (i, j) with its score
// e, assuming no rejection: none when it has no possible measurement.
func (s *Selector) sideRun(i, j int, e pairScore) drawRun {
	if e.v < 0 {
		return noDraws
	}
	return measureRun(&s.vpCats[i][e.v], &s.tgtCats[j][e.t])
}

// measureRun returns the draws of measuring with categories vc and tc.
func measureRun(vc *vpCat, tc *tgtCat) drawRun {
	return drawRun{vc.draws + 1, min(vc.low, tc.accept)}
}

// skipSide is skipFrom for orientation (i, j) with its score e, which
// draws nothing when the orientation has no possible measurement.
func (s *Selector) skipSide(i, j int, e pairScore, done int, rng *rand.Rand) int {
	if e.v < 0 {
		return done
	}
	return skipFrom(&s.vpCats[i][e.v], &s.tgtCats[j][e.t], done, rng)
}

// streamOf returns the selector's stream when it is the source behind
// rng, else nil.
func (s *Selector) streamOf(rng *rand.Rand) *Stream {
	if st := s.stream; st != nil && st.rng == rng {
		return st
	}
	return nil
}

// skipPairs advances rng over the draws of measuring links (i, j), j in
// cols, from both sides, as drawPair does without keeping a measurement.
// run is those draws' count and lowest bound. With the selector's stream
// behind rng, one scan takes the run up to the first output that some
// draw might reject; the rest is replayed draw by draw.
func (s *Selector) skipPairs(i int, cols []int, run drawRun, rng *rand.Rand) {
	done := 0
	if st := s.streamOf(rng); st != nil {
		if done = st.skip(run.draws, run.bound); done == run.draws {
			return
		}
	}
	s.replayPairs(i, cols, done, rng)
}

// replayPairs is skipPairs draw by draw, after the run's first done draws.
func (s *Selector) replayPairs(i int, cols []int, done int, rng *rand.Rand) {
	for _, j := range cols {
		done = s.skipSide(i, j, s.memo(i, j), done, rng)
		done = s.skipSide(j, i, s.memo(j, i), done, rng)
	}
}

// rowScan is one exploit scan of a row: its open columns, the winner (j
// < 0: none) and its position in cols, and the draw runs of the columns
// before the winner, after it, and of them all.
type rowScan struct {
	cols                []int
	bestJ, bestK        int
	before, after, runs drawRun
}

// scanRow scans the open columns of row i for the entry with the highest
// probability above 0.1. cols is selector scratch, valid until the next
// call.
func (s *Selector) scanRow(i int, has func(i, j int) bool, pending []bool) rowScan {
	n := len(s.Members)
	cols := s.colScratch[:0]
	bestP := 0.1
	sc := rowScan{bestJ: -1, before: noDraws, after: noDraws, runs: noDraws}
	pens := s.penalties[i] // walked alongside j
	for j := 0; j < n; j++ {
		if j == i || has(i, j) || pending[i*n+j] {
			continue
		}
		var pp *pairPen
		for len(pens) > 0 && int(pens[0].j) < j {
			pens = pens[1:]
		}
		if len(pens) > 0 && int(pens[0].j) == j {
			pp = &pens[0]
		}
		// A link can be measured from either side: probe near i toward
		// j, or near j toward i. Take the better orientation.
		a, b := s.memoPen(i, j, pp, false), s.memoPen(j, i, pp, true)
		p := a.p
		if b.p > p {
			p = b.p
		}
		run := s.sideRun(i, j, a).plus(s.sideRun(j, i, b))
		if p > bestP {
			bestP, sc.bestJ, sc.bestK = p, j, len(cols)
			sc.before, sc.after = sc.runs, noDraws
		} else {
			sc.after = sc.after.plus(run)
		}
		sc.runs = sc.runs.plus(run)
		cols = append(cols, j)
	}
	s.colScratch = cols
	sc.cols = cols
	return sc
}

// selectExploit picks the row with the fewest filled entries that has some
// entry with P > 0.1, then the entry with the highest probability (§3.3.1).
// Every open entry of every row it scans is measured from both sides in the
// RNG stream, the winner's included, so the rows before the winning one and
// the winning row itself replay their draws in scan order. The scan sums
// the draws of the columns before the winner and of those after it, so
// each run is skipped in one skipPairs call.
//
// With the selector's stream behind rng, a row whose scan found no winner
// keeps its run for the batch (dead), and later picks skip it in one
// Stream.skip without a scan, until a pick of the batch involves the row.
// If that skip stops at an output some draw might reject, the row is
// rescanned and replayed draw by draw from there, as skipPairs does.
func (s *Selector) selectExploit(fill, need []int, has func(i, j int) bool, pending []bool, rng *rand.Rand) (Measurement, bool) {
	st := s.streamOf(rng)
	for _, i := range s.rowsByFill(fill, need, rng) {
		if st != nil && s.deadGen[i] == s.gen {
			s.deadSkips++
			run := s.dead[i]
			if done := st.skip(run.draws, run.bound); done < run.draws {
				s.deadRescans++
				s.replayPairs(i, s.scanRow(i, has, pending).cols, done, rng)
			}
			continue
		}
		sc := s.scanRow(i, has, pending)
		if sc.bestJ < 0 {
			if st != nil {
				s.dead[i], s.deadGen[i] = sc.runs, s.gen
			}
			s.skipPairs(i, sc.cols, sc.runs, rng)
			continue
		}
		s.skipPairs(i, sc.cols[:sc.bestK], sc.before, rng)
		best := s.drawPair(i, sc.bestJ, rng)
		s.skipPairs(i, sc.cols[sc.bestK+1:], sc.after, rng)
		return best, true
	}
	return Measurement{}, false
}

// selectExplore picks the (i, j) minimizing fill[i]+fill[j] that has any
// possible measurement, capped at one exploration per row per batch and
// one per entry ever (§3.3.1); ties go to the smaller (i, j). Rather than
// sorting every open pair, it walks fill sums upward and, for each sum,
// pairs every eligible row i with the rows j > i of the complementary
// fill: the same (sum, i, j) order, stopping at the first feasible pair.
func (s *Selector) selectExplore(fill, need []int, has func(i, j int) bool, pending []bool, perRow []int, rng *rand.Rand) (Measurement, bool) {
	n := len(s.Members)
	elig := s.eligScratch[:0]
	for i := 0; i < n; i++ {
		if need[i] > 0 && perRow[i] < 1 {
			elig = append(elig, i)
		}
	}
	s.eligScratch = elig
	if len(elig) == 0 {
		return Measurement{}, false
	}
	lo, hi := fillRange(fill)
	byFill, start := s.sortByFill(s.allRows(n), fill, lo, hi)
	for sum := 2 * lo; sum <= 2*hi; sum++ {
		for _, i := range elig {
			f := sum - fill[i]
			if f < lo || f > hi {
				continue
			}
			bucket := byFill[start[f-lo]:start[f-lo+1]]
			for _, j := range bucket[sort.SearchInts(bucket, i+1):] {
				if has(i, j) || pending[i*n+j] || s.explored[i*n+j] {
					continue
				}
				// Infeasible pairs draw nothing.
				if s.memo(i, j).v < 0 && s.memo(j, i).v < 0 {
					continue
				}
				m := s.drawPair(i, j, rng)
				m.Exploration = true
				s.explored[i*n+j] = true
				perRow[i]++
				perRow[j]++
				return m, true
			}
		}
	}
	return Measurement{}, false
}

// allRows returns the row indices 0..n-1 (selector scratch).
func (s *Selector) allRows(n int) []int {
	if len(s.rowIDs) != n {
		s.rowIDs = make([]int, n)
		for i := range s.rowIDs {
			s.rowIDs[i] = i
		}
	}
	return s.rowIDs
}

// sortByFill orders rows by increasing fill, keeping their given order
// among equal fills (a counting sort over the fill range [lo, hi], the
// order sort.Stable gives). Rows of fill f are sorted[start[f-lo]:
// start[f-lo+1]]. Both results are selector scratch, valid until the
// next call.
func (s *Selector) sortByFill(rows, fill []int, lo, hi int) (sorted, start []int) {
	start = append(s.fillStart[:0], make([]int, hi-lo+2)...)
	for _, i := range rows {
		start[fill[i]-lo+1]++
	}
	for k := 1; k < len(start); k++ {
		start[k] += start[k-1]
	}
	next := append(s.fillNext[:0], start...)
	sorted = slices.Grow(s.fillSorted[:0], len(rows))[:len(rows)]
	for _, i := range rows {
		k := fill[i] - lo
		sorted[next[k]] = i
		next[k]++
	}
	s.fillStart, s.fillNext, s.fillSorted = start, next, sorted
	return sorted, start
}

// rowsByFill orders member rows that still need entries by increasing fill
// count, breaking ties randomly (§3.3.1): a shuffle, then a stable sort by
// fill. The returned slice is selector scratch, valid until the next call.
func (s *Selector) rowsByFill(fill, need []int, rng *rand.Rand) []int {
	rows := s.rowScratch[:0]
	for i := range fill {
		if need[i] > 0 {
			rows = append(rows, i)
		}
	}
	s.rowScratch = rows
	rng.Shuffle(len(rows), func(a, b int) { rows[a], rows[b] = rows[b], rows[a] })
	lo, hi := fillRange(fill)
	sorted, _ := s.sortByFill(rows, fill, lo, hi)
	return sorted
}

// fillRange returns the smallest and largest fill count (0, -1 if none).
func fillRange(fill []int) (lo, hi int) {
	if len(fill) == 0 {
		return 0, -1
	}
	return slices.Min(fill), slices.Max(fill)
}

// Report feeds back whether a measurement was informative for its target
// entry, updating strategy statistics, per-entry penalties and VP scores.
// Report is not safe for concurrent use and its call order shapes future
// SelectBatch decisions; the measurement pipeline therefore serializes
// Report calls on the committing goroutine, in batch order, even when the
// traceroutes themselves ran concurrently (see the ordered-commit contract
// on SelectBatch).
func (s *Selector) Report(m Measurement, informative bool) {
	id := m.Strat.ID()
	s.stratTrial[id]++
	if informative {
		s.stratSucc[id]++
	}
	s.rate[id] = s.stratSucc[id] / s.stratTrial[id]
	i, okI := s.Index[m.LinkI]
	j, okJ := s.Index[m.LinkJ]
	if okI && okJ {
		pp := s.pairOf(i, j)
		if informative {
			s.setPair(i, j, 1, withPen(pp.out, id, 0), pp.in)
		} else {
			// A factor that underflows to 0 reads as no penalty.
			entry := pp.entry * 0.7
			if entry == 0 {
				entry = 1
			}
			s.setPair(i, j, entry, withPen(pp.out, id, factorOf(pp.out, id)*0.5), pp.in)
		}
	}
	if okI {
		if vi, ok := s.vpIndexOf(m.VP); ok {
			scores := s.vpScore[i]
			c, found := findVPCount(scores, vi)
			if !found {
				scores = slices.Insert(scores, c, vpCount{vp: vi})
				s.vpScore[i] = scores
			}
			scores[c].total++
			if informative {
				scores[c].good++
			}
		}
	}
}

// findVPCount returns the position of vp in a row's sorted score list, or
// where it would be inserted, and whether it is there.
func findVPCount(scores []vpCount, vp int32) (int, bool) {
	return slices.BinarySearchFunc(scores, vp, func(c vpCount, vp int32) int { return cmp.Compare(c.vp, vp) })
}

// vpIndexOf resolves a VP value back to its index in s.vps.
func (s *Selector) vpIndexOf(vp VP) (int32, bool) {
	s.indexVPs()
	vi, ok := s.vpIndex[vp]
	return vi, ok
}

// PoolPriors averages strategy rates from several metros into a single
// prior (the complete-pooling step at the top of the hierarchical model;
// metro-level deviations are learned once measurements arrive).
func PoolPriors(rates ...[NumStrategies]float64) [NumStrategies]float64 {
	var out [NumStrategies]float64
	if len(rates) == 0 {
		return out
	}
	for _, r := range rates {
		for i := range out {
			out[i] += r[i]
		}
	}
	for i := range out {
		out[i] /= float64(len(rates))
		out[i] = math.Min(1, math.Max(0, out[i]))
	}
	return out
}
