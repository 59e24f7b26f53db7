// Package netsim generates a synthetic Internet with known ground truth.
//
// The real metAScritic runs against the live Internet; this reproduction
// replaces it with a generative model that preserves the structural
// properties the paper's argument rests on:
//
//   - ASes have latent "peering strategies" drawn from a low-dimensional
//     space shaped by business type, traffic profile, peering policy and
//     geography, so each metro's connectivity matrix is effectively
//     low-rank (§2, Appx. B.1).
//   - IXP route servers create dense multilateral meshes (near-rank-1
//     blocks).
//   - Public features correlate with — but do not determine — peering
//     decisions (Fig. 1).
//   - A transit (c2p) hierarchy provides the routing substrate, and
//     per-pair interconnection metros enable hot-potato exit selection.
//
// Because the generator knows the true connectivity matrix T_m of every
// metro, evaluation can measure exact precision/recall and the controlled
// rank-recovery experiment (Appx. E.5) can verify rank estimation.
//
// # Scale
//
// Generation is built to reach real-Internet scale (~100k ASes, ~500k
// links; its parallel phases run on the par.For pool, GOMAXPROCS wide).
// The peering build never
// scans all AS pairs: candidate pairs are enumerated per metro (only
// colocated ASes are ever scored), deduplicated by assigning each pair to
// its lowest shared metro, scored in parallel, and then materialized by a
// single sequential pass in canonical pair order — so a given seed yields
// a byte-identical world at any worker count, and (at legacy scales) a
// world bit-identical to the historical all-pairs generator.
package netsim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"metascritic/internal/asgraph"
	"metascritic/internal/mat"
	"metascritic/internal/par"
)

// MetroSpec describes one metro to generate.
type MetroSpec struct {
	Name      string
	Country   string
	Continent string
	// NumASes is the number of ASes whose footprint includes this metro.
	NumASes int
	// VPCoverage is the fraction of local ASes hosting a vantage point
	// (directly or via a customer), reproducing the geographic probe
	// disparities of Fig. 6.
	VPCoverage float64
	// Primary marks the metros metAScritic is run on (the paper's six).
	Primary bool
}

// Config controls world generation. Zero values are replaced by defaults.
type Config struct {
	Seed   int64
	Metros []MetroSpec
	// LatentDim is the dimension of the hidden strategy vectors.
	LatentDim int
	// FeatureNoise is the std-dev of the noise added to latent vectors so
	// features are informative but not sufficient.
	FeatureNoise float64
	// LinkMaterializeProb is the probability that a would-peer pair
	// actually interconnects at any given shared metro (drives the
	// geographic-transferability statistics of Appx. E.4).
	LinkMaterializeProb float64
	// NumTier1 is the number of Tier-1 ASes (full mesh, global footprint).
	NumTier1 int
	// NumHypergiants is the number of hypergiant (cloud/CDN) ASes.
	NumHypergiants int
	// NumArchetypes is the number of hidden peering-strategy archetypes:
	// the low-dimensional structure that makes connectivity matrices
	// effectively low-rank without being visible in public features.
	NumArchetypes int
}

// DefaultMetros returns the paper's six study metros plus a set of
// secondary metros used for transferability and Fig. 6.
func DefaultMetros(scale float64) []MetroSpec {
	s := func(n int) int {
		v := int(float64(n) * scale)
		if v < 20 {
			v = 20
		}
		return v
	}
	return []MetroSpec{
		{Name: "Amsterdam", Country: "NL", Continent: "EU", NumASes: s(360), VPCoverage: 0.80, Primary: true},
		{Name: "NewYork", Country: "US", Continent: "NA", NumASes: s(200), VPCoverage: 0.70, Primary: true},
		{Name: "SaoPaulo", Country: "BR", Continent: "SA", NumASes: s(380), VPCoverage: 0.14, Primary: true},
		{Name: "Singapore", Country: "SG", Continent: "AS", NumASes: s(170), VPCoverage: 0.55, Primary: true},
		{Name: "Sydney", Country: "AU", Continent: "OC", NumASes: s(170), VPCoverage: 0.60, Primary: true},
		{Name: "Tokyo", Country: "JP", Continent: "AS", NumASes: s(110), VPCoverage: 0.65, Primary: true},
		// Secondary metros: same-country, same-continent and remote
		// locations for transferability and strategy categorization.
		{Name: "Rotterdam", Country: "NL", Continent: "EU", NumASes: s(70), VPCoverage: 0.75},
		{Name: "Frankfurt", Country: "DE", Continent: "EU", NumASes: s(120), VPCoverage: 0.80},
		{Name: "London", Country: "GB", Continent: "EU", NumASes: s(130), VPCoverage: 0.80},
		{Name: "Chicago", Country: "US", Continent: "NA", NumASes: s(90), VPCoverage: 0.65},
		{Name: "RioDeJaneiro", Country: "BR", Continent: "SA", NumASes: s(80), VPCoverage: 0.12},
		{Name: "Osaka", Country: "JP", Continent: "AS", NumASes: s(60), VPCoverage: 0.60},
		{Name: "Melbourne", Country: "AU", Continent: "OC", NumASes: s(60), VPCoverage: 0.55},
		{Name: "Johannesburg", Country: "ZA", Continent: "AF", NumASes: s(70), VPCoverage: 0.20},
	}
}

// internetRegions is the country/continent pool InternetMetros draws
// from: a coarse slice of the real interconnection geography, weighted
// toward the regions that host the large IX ecosystems.
var internetRegions = []struct {
	country, continent string
	vp                 float64 // typical VP coverage in the region (Fig. 6)
	weight             int     // relative number of metros
}{
	{"US", "NA", 0.65, 9}, {"CA", "NA", 0.60, 2}, {"MX", "NA", 0.25, 1},
	{"BR", "SA", 0.14, 4}, {"AR", "SA", 0.15, 1}, {"CL", "SA", 0.18, 1},
	{"DE", "EU", 0.80, 4}, {"NL", "EU", 0.80, 2}, {"GB", "EU", 0.78, 3},
	{"FR", "EU", 0.72, 2}, {"ES", "EU", 0.60, 1}, {"IT", "EU", 0.55, 1},
	{"PL", "EU", 0.58, 1}, {"SE", "EU", 0.70, 1}, {"RU", "EU", 0.40, 2},
	{"JP", "AS", 0.62, 3}, {"SG", "AS", 0.55, 1}, {"HK", "AS", 0.50, 1},
	{"IN", "AS", 0.30, 4}, {"ID", "AS", 0.25, 2}, {"KR", "AS", 0.55, 1},
	{"AU", "OC", 0.58, 3}, {"NZ", "OC", 0.55, 1},
	{"ZA", "AF", 0.20, 2}, {"KE", "AF", 0.15, 1}, {"NG", "AF", 0.12, 1},
	{"EG", "AF", 0.15, 1},
}

// InternetMetros synthesizes a metro set sized for ~nASes total
// single-home assignments: many metros with a heavy-tailed (Zipf-like)
// size distribution over a realistic country/continent mix, the shape
// worldgen -ases uses to build 100k-AS worlds. The paper's six study
// metros stay present (and Primary) at the head of the list.
func InternetMetros(nASes int) []MetroSpec {
	if nASes < 2000 {
		nASes = 2000
	}
	// Metro count grows sublinearly so mean metro size grows slowly:
	// ~96 metros at 10k ASes, ~240 at 100k (mean size ~420).
	nMetros := int(24 * float64(nASes) / 1000 / 10)
	if nMetros < 48 {
		nMetros = 48
	}
	if nMetros > 1200 {
		nMetros = 1200
	}
	specs := make([]MetroSpec, 0, nMetros)
	head := []MetroSpec{
		{Name: "Amsterdam", Country: "NL", Continent: "EU", VPCoverage: 0.80, Primary: true},
		{Name: "NewYork", Country: "US", Continent: "NA", VPCoverage: 0.70, Primary: true},
		{Name: "SaoPaulo", Country: "BR", Continent: "SA", VPCoverage: 0.14, Primary: true},
		{Name: "Singapore", Country: "SG", Continent: "AS", VPCoverage: 0.55, Primary: true},
		{Name: "Sydney", Country: "AU", Continent: "OC", VPCoverage: 0.60, Primary: true},
		{Name: "Tokyo", Country: "JP", Continent: "AS", VPCoverage: 0.65, Primary: true},
	}
	specs = append(specs, head...)
	ri, taken := 0, 0
	for len(specs) < nMetros {
		r := internetRegions[ri%len(internetRegions)]
		ri++
		taken++
		specs = append(specs, MetroSpec{
			Name:       fmt.Sprintf("%s-M%d", r.country, taken),
			Country:    r.country,
			Continent:  r.continent,
			VPCoverage: r.vp,
		})
		// Regions with more weight contribute metros more often.
		for k := 1; k < r.weight && len(specs) < nMetros; k++ {
			if (taken+k)%3 == 0 {
				break
			}
			taken++
			specs = append(specs, MetroSpec{
				Name:       fmt.Sprintf("%s-M%d", r.country, taken),
				Country:    r.country,
				Continent:  r.continent,
				VPCoverage: r.vp,
			})
		}
	}
	// Zipf-ish sizes: metro k gets weight 1/(k+3)^0.72, normalized to
	// nASes. The exponent keeps the head heavy (Amsterdam-like) without
	// letting a single metro dominate the pair-enumeration cost.
	weights := make([]float64, len(specs))
	totW := 0.0
	for k := range specs {
		weights[k] = zipfWeight(k)
		totW += weights[k]
	}
	for k := range specs {
		n := int(float64(nASes) * weights[k] / totW)
		if n < 25 {
			n = 25
		}
		specs[k].NumASes = n
	}
	return specs
}

func zipfWeight(k int) float64 {
	return 1 / math.Pow(float64(k+3), 0.5)
}

// denseCutoff is the metro population above which dense-market
// attenuation kicks in: in big interconnection markets, the fraction of
// local networks joining any one IXP falls, and bilateral peering gets
// more selective (you interconnect with the partners that matter, not
// with everyone present). Below the cutoff the generator behaves exactly
// like the historical one, which keeps the legacy-scale golden worlds
// bit-identical; the largest golden-world metro has 148 members.
const denseCutoff = 200

// ixpJoinScale attenuates IXP join probability in metros larger than
// denseCutoff (1/x-law: the absolute number of IXP members keeps growing
// with the market, but the join *fraction* falls, so route-server meshes
// stop growing quadratically in metro population).
func ixpJoinScale(members int) float64 {
	if members <= denseCutoff {
		return 1
	}
	return denseCutoff / float64(members)
}

// worldCutoff is the total AS count above which global selectivity kicks
// in (the largest legacy golden world has 639 ASes). Real peering
// decisions get more selective as the candidate pool grows: average
// degree stays near-constant while N grows by orders of magnitude, so
// the per-pair admission rate must fall roughly like 1/N. The log-score
// penalty implements that decay.
const worldCutoff = 650

func globalPenalty(n int) float64 {
	if n <= worldCutoff {
		return 0
	}
	return 1.5 * math.Log(float64(n)/worldCutoff)
}

// densityPenalty is subtracted from the bilateral peering score for
// pairs claimed at a metro with more than denseCutoff members: log-law
// selectivity so link counts grow near-linearly (not quadratically) with
// metro population.
func densityPenalty(members int) float64 {
	if members <= denseCutoff {
		return 0
	}
	return 0.55 * math.Log(float64(members)/denseCutoff)
}

func (c *Config) applyDefaults() {
	if c.Metros == nil {
		c.Metros = DefaultMetros(1.0)
	}
	if c.LatentDim == 0 {
		c.LatentDim = 8
	}
	if c.FeatureNoise == 0 {
		c.FeatureNoise = 0.3
	}
	if c.LinkMaterializeProb == 0 {
		c.LinkMaterializeProb = 0.78
	}
	if c.NumTier1 == 0 {
		c.NumTier1 = 8
	}
	if c.NumHypergiants == 0 {
		c.NumHypergiants = 6
	}
	if c.NumArchetypes == 0 {
		c.NumArchetypes = 10
	}
}

// Pair is a canonical (A < B) AS-index pair (alias of asgraph.Pair).
type Pair = asgraph.Pair

// MakePair canonicalizes an AS pair.
func MakePair(a, b int) Pair { return asgraph.MakePair(a, b) }

// Probe is a vantage point: a measurement probe hosted by an AS at a metro.
type Probe struct {
	AS    int
	Metro int
}

// Truth is the ground-truth connectivity of one metro: T_m in the paper.
type Truth struct {
	Metro   int
	Members []int       // AS indices present at the metro, sorted
	Index   map[int]int // AS index -> row in M
	// M is the binary symmetric ground-truth link relation over member
	// rows: M.Has(i, j) iff the member ASes interconnect (peering or
	// transit) at this metro. As a sparse mask it costs about 8 bytes
	// per link.
	M *mat.Mask
}

// Has reports whether ASes a and b (graph indices) interconnect at the
// metro. Returns false if either is not a member.
func (t *Truth) Has(a, b int) bool {
	i, ok1 := t.Index[a]
	j, ok2 := t.Index[b]
	if !ok1 || !ok2 {
		return false
	}
	return t.M.Has(i, j)
}

// NumLinks returns the number of distinct links in the metro. The mask is
// symmetric with an empty diagonal, so each link is counted twice.
func (t *Truth) NumLinks() int { return t.M.Count() / 2 }

// World is a fully generated synthetic Internet.
type World struct {
	Cfg Config
	G   *asgraph.Graph
	// Truths maps metro index to its ground-truth connectivity.
	Truths map[int]*Truth
	// LinkMetros lists, for every interconnected AS pair, the metros where
	// they actually interconnect.
	LinkMetros map[Pair][]int
	// Rel records the business relationship of each interconnected pair:
	// for C2P the customer is always Pair.A's role iff CustomerIsA.
	Rel map[Pair]asgraph.Rel
	// CustomerIsA records, for C2P pairs, whether Pair.A is the customer.
	CustomerIsA map[Pair]bool
	// ProbeASes is the sorted set of AS indices hosting vantage points.
	ProbeASes []int
	// Probes lists every vantage point with its physical location (an AS
	// can host probes in several metros).
	Probes   []Probe
	probeSet map[int]bool
	// Responsive[i] reports whether AS i answers probes toward its
	// addresses (targets in unresponsive ASes never yield traceroutes).
	Responsive []bool
	// Latent holds the hidden strategy vectors (one row per AS). Exposed
	// only for the controlled experiments; the inference pipeline must
	// never read it.
	Latent *mat.Matrix
	// Facilities maps metro -> facility -> member AS indices (coarse
	// colocation data used as a pair feature).
	Facilities map[int][][]int
	// Epoch counts applied evolution batches (see Evolve); a freshly
	// generated world is at epoch 0.
	Epoch uint32
}

// Generate builds a world from cfg.
func Generate(cfg Config) *World {
	cfg.applyDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	w := &World{
		Cfg:         cfg,
		G:           asgraph.NewGraph(),
		Truths:      map[int]*Truth{},
		LinkMetros:  map[Pair][]int{},
		Rel:         map[Pair]asgraph.Rel{},
		CustomerIsA: map[Pair]bool{},
		Facilities:  map[int][][]int{},
	}
	w.buildGeography()
	w.buildASes(rng)
	w.buildTransit(rng)
	w.buildIXPs(rng)
	w.buildLatent(rng)
	w.buildPeering(rng)
	w.assignTransitMetros(rng)
	w.G.Compact()
	w.buildTruthMatrices()
	w.buildFacilities(rng)
	w.placeProbes(rng)
	return w
}

func (w *World) buildGeography() {
	contIdx := map[string]int{}
	ctryIdx := map[string]int{}
	for _, ms := range w.Cfg.Metros {
		ci, ok := contIdx[ms.Continent]
		if !ok {
			ci = len(w.G.Continents)
			contIdx[ms.Continent] = ci
			w.G.Continents = append(w.G.Continents, ms.Continent)
		}
		ki, ok := ctryIdx[ms.Country]
		if !ok {
			ki = len(w.G.Countries)
			ctryIdx[ms.Country] = ki
			w.G.Countries = append(w.G.Countries, asgraph.Country{Code: ms.Country, Continent: ci})
		}
		w.G.Metros = append(w.G.Metros, &asgraph.Metro{
			Index:   len(w.G.Metros),
			Name:    ms.Name,
			Country: ki,
		})
	}
}

// classMix returns the fraction of each class among the ordinary (non-Tier1,
// non-hypergiant) ASes generated for a metro.
var classMix = []struct {
	class asgraph.Class
	frac  float64
}{
	{asgraph.LargeISP, 0.05},
	{asgraph.Content, 0.16},
	{asgraph.Enterprise, 0.12},
	{asgraph.Transit, 0.15},
	{asgraph.Stub, 0.52},
}

func (w *World) buildASes(rng *rand.Rand) {
	nextASN := 100
	allMetros := make([]int, len(w.G.Metros))
	for i := range allMetros {
		allMetros[i] = i
	}
	// Tier-1s: global footprint, inconsistent routing, restrictive policy.
	for i := 0; i < w.Cfg.NumTier1; i++ {
		a := &asgraph.AS{
			ASN:               nextASN,
			Class:             asgraph.Tier1,
			Policy:            asgraph.Restrictive,
			Traffic:           asgraph.Balanced,
			Eyeballs:          50_000 + rng.Intn(400_000),
			AddrSpace:         1 << (20 + rng.Intn(4)),
			Country:           rng.Intn(len(w.G.Countries)),
			Metros:            append([]int(nil), allMetros...),
			ConsistentRouting: false,
		}
		nextASN++
		w.G.AddAS(a)
	}
	// Hypergiants: global footprint, open policy, heavy outbound.
	for i := 0; i < w.Cfg.NumHypergiants; i++ {
		a := &asgraph.AS{
			ASN:               nextASN,
			Class:             asgraph.Hypergiant,
			Policy:            asgraph.Open,
			Traffic:           asgraph.HeavyOutbound,
			Eyeballs:          rng.Intn(5_000),
			AddrSpace:         1 << (18 + rng.Intn(5)),
			Country:           rng.Intn(len(w.G.Countries)),
			Metros:            append([]int(nil), allMetros...),
			ConsistentRouting: false,
		}
		nextASN++
		w.G.AddAS(a)
	}
	// Ordinary ASes per metro. Some get multi-metro footprints: extra
	// metros biased toward the same country/continent. The scope-ranked
	// candidate list depends only on the home metro, so it is computed
	// once per metro instead of once per AS (the all-metros sort per AS
	// dominated generation time at Internet scale).
	ranked := w.rankExtraMetros()
	for mi, ms := range w.Cfg.Metros {
		for k := 0; k < ms.NumASes; k++ {
			var class asgraph.Class
			r := rng.Float64()
			acc := 0.0
			for _, cm := range classMix {
				acc += cm.frac
				if r < acc {
					class = cm.class
					break
				}
				class = cm.class
			}
			a := &asgraph.AS{
				ASN:     nextASN,
				Class:   class,
				Country: w.G.Metros[mi].Country,
				Metros:  []int{mi},
			}
			nextASN++
			w.decorateOrdinary(a, rng)
			w.extendFootprint(a, mi, ranked[mi], rng)
			w.G.AddAS(a)
		}
	}
	// Cache metro membership.
	for i := range w.G.ASes {
		for _, m := range w.G.ASes[i].Metros {
			w.G.Metros[m].Members = append(w.G.Metros[m].Members, i)
		}
	}
	for _, m := range w.G.Metros {
		sort.Ints(m.Members)
	}
}

func (w *World) decorateOrdinary(a *asgraph.AS, rng *rand.Rand) {
	switch a.Class {
	case asgraph.LargeISP:
		a.Traffic = pick(rng, asgraph.HeavyInbound, asgraph.HeavyInbound, asgraph.MostlyInbound)
		a.Policy = pick(rng, asgraph.Selective, asgraph.Selective, asgraph.Open)
		a.Eyeballs = 500_000 + rng.Intn(5_000_000)
		a.AddrSpace = 1 << (18 + rng.Intn(4))
		a.ConsistentRouting = rng.Float64() < 0.6
	case asgraph.Content:
		a.Traffic = pick(rng, asgraph.HeavyOutbound, asgraph.MostlyOutbound, asgraph.MostlyOutbound)
		a.Policy = pick(rng, asgraph.Open, asgraph.Open, asgraph.Selective)
		a.Eyeballs = rng.Intn(2_000)
		a.AddrSpace = 1 << (12 + rng.Intn(5))
		a.ConsistentRouting = rng.Float64() < 0.55
	case asgraph.Enterprise:
		a.Traffic = pick(rng, asgraph.Balanced, asgraph.MostlyInbound, asgraph.Balanced)
		a.Policy = pick(rng, asgraph.Restrictive, asgraph.Selective, asgraph.Restrictive)
		a.Eyeballs = rng.Intn(20_000)
		a.AddrSpace = 1 << (10 + rng.Intn(5))
		a.ConsistentRouting = rng.Float64() < 0.95
	case asgraph.Transit:
		a.Traffic = asgraph.Balanced
		a.Policy = pick(rng, asgraph.Selective, asgraph.Open, asgraph.Selective)
		a.Eyeballs = 10_000 + rng.Intn(400_000)
		a.AddrSpace = 1 << (15 + rng.Intn(5))
		a.ConsistentRouting = rng.Float64() < 0.5
	default: // Stub
		a.Traffic = pick(rng, asgraph.MostlyInbound, asgraph.Balanced, asgraph.HeavyInbound)
		a.Policy = pick(rng, asgraph.Open, asgraph.Selective, asgraph.Restrictive)
		a.Eyeballs = rng.Intn(200_000)
		a.AddrSpace = 1 << (8 + rng.Intn(5))
		a.ConsistentRouting = rng.Float64() < 0.95
	}
}

func pick[T any](rng *rand.Rand, choices ...T) T { return choices[rng.Intn(len(choices))] }

// rankedMetro is one candidate extra-footprint metro with its admission
// probability (by geographic scope from the home metro).
type rankedMetro struct {
	m int
	p float64
}

// rankExtraMetros precomputes, per home metro, every other metro sorted
// by (scope, index) with its scope-derived admission probability — the
// exact candidate order the historical per-AS sort produced.
func (w *World) rankExtraMetros() [][]rankedMetro {
	probs := [...]float64{0.8, 0.55, 0.3, 0.12}
	out := make([][]rankedMetro, len(w.G.Metros))
	for home := range w.G.Metros {
		type cand struct {
			m     int
			scope asgraph.GeoScope
		}
		cands := make([]cand, 0, len(w.G.Metros)-1)
		for m := range w.G.Metros {
			if m == home {
				continue
			}
			cands = append(cands, cand{m, w.G.ScopeOfMetros(home, m)})
		}
		sort.Slice(cands, func(i, j int) bool {
			if cands[i].scope != cands[j].scope {
				return cands[i].scope < cands[j].scope
			}
			return cands[i].m < cands[j].m
		})
		rm := make([]rankedMetro, len(cands))
		for i, c := range cands {
			rm[i] = rankedMetro{m: c.m, p: probs[c.scope]}
		}
		out[home] = rm
	}
	return out
}

// extendFootprint may add more metros to an AS, preferring geographically
// close ones, so that transferability (Appx. E.4) is exercised.
func (w *World) extendFootprint(a *asgraph.AS, home int, ranked []rankedMetro, rng *rand.Rand) {
	var extra int
	switch a.Class {
	case asgraph.LargeISP, asgraph.Transit:
		extra = rng.Intn(4) // 0..3 extra metros
	case asgraph.Content:
		extra = rng.Intn(3)
	case asgraph.Enterprise:
		extra = rng.Intn(2)
	default:
		if rng.Float64() < 0.12 {
			extra = 1
		}
	}
	if extra == 0 {
		return
	}
	for _, c := range ranked {
		if extra == 0 {
			break
		}
		// Closer metros are much more likely to be added.
		if rng.Float64() < c.p {
			a.Metros = append(a.Metros, c.m)
			extra--
		}
	}
	sort.Ints(a.Metros)
}

// buildTransit wires the c2p hierarchy: stubs and edge networks buy from
// transit providers and large ISPs that share a metro; regional transits
// and large ISPs buy from Tier-1s; hypergiants keep one transit for
// reachability. The result is a connected valley-free substrate.
func (w *World) buildTransit(rng *rand.Rand) {
	byClass := map[asgraph.Class][]int{}
	for i := range w.G.ASes {
		c := w.G.ASes[i].Class
		byClass[c] = append(byClass[c], i)
	}
	tier1s := byClass[asgraph.Tier1]
	// Tier1 full mesh peering.
	for i := 0; i < len(tier1s); i++ {
		for j := i + 1; j < len(tier1s); j++ {
			w.G.AddPeer(tier1s[i], tier1s[j])
			p := MakePair(tier1s[i], tier1s[j])
			w.Rel[p] = asgraph.P2P
		}
	}
	// Transit and LargeISP buy from 2-3 Tier1s.
	for _, cls := range []asgraph.Class{asgraph.Transit, asgraph.LargeISP} {
		for _, i := range byClass[cls] {
			n := 2 + rng.Intn(2)
			perm := rng.Perm(len(tier1s))
			for k := 0; k < n && k < len(perm); k++ {
				w.addTransitLink(i, tier1s[perm[k]])
			}
		}
	}
	// Hypergiants keep 1-2 Tier1 transits for universal reachability.
	for _, i := range byClass[asgraph.Hypergiant] {
		n := 1 + rng.Intn(2)
		perm := rng.Perm(len(tier1s))
		for k := 0; k < n && k < len(perm); k++ {
			w.addTransitLink(i, tier1s[perm[k]])
		}
	}
	// Edge networks buy from 1-3 providers sharing a metro, preferring
	// Transit then LargeISP. Candidates are collected from per-metro
	// upstream buckets (not an all-upstreams scan) and ordered by global
	// upstream rank, which reproduces the order of the historical
	// filtered scan.
	upstream := append(append([]int(nil), byClass[asgraph.Transit]...), byClass[asgraph.LargeISP]...)
	upstreamRank := make(map[int]int, len(upstream))
	for r, u := range upstream {
		upstreamRank[u] = r
	}
	upstreamAt := make([][]int, len(w.G.Metros))
	for _, u := range upstream {
		for _, m := range w.G.ASes[u].Metros {
			upstreamAt[m] = append(upstreamAt[m], u)
		}
	}
	seen := make([]int, w.G.N())
	for i := range seen {
		seen[i] = -1
	}
	var cands []int
	for _, cls := range []asgraph.Class{asgraph.Content, asgraph.Enterprise, asgraph.Stub} {
		for _, i := range byClass[cls] {
			cands = cands[:0]
			for _, m := range w.G.ASes[i].Metros {
				for _, u := range upstreamAt[m] {
					if u != i && seen[u] != i {
						seen[u] = i
						cands = append(cands, u)
					}
				}
			}
			sort.Slice(cands, func(x, y int) bool { return upstreamRank[cands[x]] < upstreamRank[cands[y]] })
			if len(cands) == 0 {
				// Fall back to a Tier1 (global footprint guarantees
				// colocation).
				w.addTransitLink(i, tier1s[rng.Intn(len(tier1s))])
				continue
			}
			n := 1 + rng.Intn(3)
			perm := rng.Perm(len(cands))
			for k := 0; k < n && k < len(perm); k++ {
				w.addTransitLink(i, cands[perm[k]])
			}
		}
	}
}

func (w *World) addTransitLink(customer, provider int) {
	if customer == provider {
		return
	}
	p := MakePair(customer, provider)
	if _, exists := w.Rel[p]; exists {
		return
	}
	w.G.AddC2P(customer, provider)
	w.Rel[p] = asgraph.C2P
	w.CustomerIsA[p] = p.A == customer
}

func (w *World) buildIXPs(rng *rand.Rand) {
	for mi := range w.G.Metros {
		m := w.G.Metros[mi]
		nIXP := 1
		if len(m.Members) > 150 {
			nIXP = 2
		}
		for k := 0; k < nIXP; k++ {
			ix := &asgraph.IXP{
				Index:          len(w.G.IXPs),
				Name:           fmt.Sprintf("%s-IX%d", m.Name, k+1),
				Metro:          mi,
				HasRouteServer: true,
			}
			w.G.IXPs = append(w.G.IXPs, ix)
			m.IXPs = append(m.IXPs, ix.Index)
			joinScale := ixpJoinScale(len(m.Members))
			for _, ai := range m.Members {
				a := &w.G.ASes[ai]
				joinP := map[asgraph.PeeringPolicy]float64{
					asgraph.Open:        0.75,
					asgraph.Selective:   0.45,
					asgraph.Restrictive: 0.12,
				}[a.Policy]
				if a.Class == asgraph.Tier1 {
					joinP = 0.15
				}
				joinP *= joinScale
				if rng.Float64() < joinP {
					ix.Members = append(ix.Members, ai)
					a.AddIXP(ix.Index)
					// Route-server participation (multilateral peering).
					rsP := 0.7
					if a.Policy == asgraph.Selective {
						rsP = 0.35
					}
					if a.Policy == asgraph.Restrictive {
						rsP = 0.08
					}
					a.SetRouteServer(ix.Index, rng.Float64() < rsP)
				}
			}
		}
	}
}

// Latent embedding blocks. Each feature contributes a fixed direction in
// latent space plus per-AS noise, so public features are predictive of the
// hidden strategy without determining it.
func (w *World) buildLatent(rng *rand.Rand) {
	// Latent strategy vectors combine a small feature-derived part —
	// public attributes hint at the strategy, giving Fig. 1's moderate
	// correlations — with a dominant HIDDEN archetype: each AS follows
	// one of a handful of peering playbooks assigned independently of
	// its public profile. The archetype block structure is what makes
	// the connectivity matrix effectively low-rank, and it is only
	// recoverable from observed links, never from features.
	k := w.Cfg.LatentDim
	classDir := randDirs(rng, int(asgraph.NumClasses), k, 0.6)
	trafficDir := randDirs(rng, int(asgraph.NumProfiles), k, 0.5)
	countryDir := randDirs(rng, len(w.G.Countries), k, 0.25)
	archDir := randDirs(rng, w.Cfg.NumArchetypes, k, 0.9)
	w.Latent = mat.New(w.G.N(), k)
	for i := range w.G.ASes {
		a := &w.G.ASes[i]
		arch := archDir[rng.Intn(len(archDir))]
		row := w.Latent.Row(i)
		for d := 0; d < k; d++ {
			row[d] = classDir[a.Class][d] + trafficDir[a.Traffic][d] +
				countryDir[a.Country][d] + arch[d] +
				w.Cfg.FeatureNoise*rng.NormFloat64()
		}
	}
}

func randDirs(rng *rand.Rand, n, k int, scale float64) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, k)
		for d := range out[i] {
			out[i][d] = scale * rng.NormFloat64()
		}
	}
	return out
}

// openBias converts a peering policy to an additive appetite term.
func openBias(p asgraph.PeeringPolicy) float64 {
	switch p {
	case asgraph.Open:
		return 0.9
	case asgraph.Selective:
		return 0.0
	default:
		return -1.3
	}
}

// complementarity rewards pairs at opposite ends of the traffic value chain
// (eyeball ↔ content), the dominant driver in Fig. 1.
func complementarity(a, b asgraph.TrafficProfile) float64 {
	in := func(t asgraph.TrafficProfile) float64 {
		switch t {
		case asgraph.HeavyInbound:
			return 1
		case asgraph.MostlyInbound:
			return 0.5
		case asgraph.MostlyOutbound:
			return -0.5
		case asgraph.HeavyOutbound:
			return -1
		default:
			return 0
		}
	}
	return -0.8 * in(a) * in(b) // opposite signs ⇒ positive reward
}

// peerCand is one colocated AS pair that may materialize links: either
// the latent score clears the would-peer bar, or the two ASes share a
// route server (multilateral peering can force a link regardless of
// score). Everything rng-dependent is deferred to the sequential commit
// pass; the candidate itself is a pure function of the graph.
type peerCand struct {
	a, b      int32
	wouldPeer bool
	hasRS     bool
}

// buildPeering decides, per pair of colocated ASes, whether they would
// peer, then materializes the link at each shared metro with probability
// LinkMaterializeProb (route-server co-members always link at that IXP's
// metro). Tier-1s do not peer downward; their interconnections with
// non-Tier1 ASes are the transit links.
//
// The build is two-phase. Phase 1 enumerates candidates per metro over a
// worker pool: each metro scans only its own member pairs, and a pair
// colocated at several metros is claimed exactly once — by its lowest
// shared metro (footprint-bitset first-common-bit test). Phase 2 sorts
// the merged candidates into canonical (a,b) order and replays the rng
// stream sequentially, reproducing the historical all-pairs generator
// draw for draw — so a seed fully determines the world at any worker
// count, and legacy-scale worlds are bit-identical to the old generator.
func (w *World) buildPeering(rng *rand.Rand) {
	n := w.G.N()
	k := w.Cfg.LatentDim
	g := w.G

	// Local flat bitsets: footprint, and route-server membership (rs bit
	// implies IXP membership, so rsA∧rsB ≠ 0 ⇔ shared route server).
	mw := asgraph.BitsetWords(len(g.Metros))
	xw := asgraph.BitsetWords(len(g.IXPs))
	foot := make([]uint64, n*mw)
	rs := make([]uint64, n*xw)
	for i := 0; i < n; i++ {
		a := &g.ASes[i]
		fb := asgraph.Bitset(foot[i*mw : (i+1)*mw])
		for _, m := range a.Metros {
			fb.Set(m)
		}
		rb := asgraph.Bitset(rs[i*xw : (i+1)*xw])
		for _, x := range a.IXPs {
			if a.OnRouteServer(x) {
				rb.Set(x)
			}
		}
	}
	footOf := func(i int32) asgraph.Bitset { return asgraph.Bitset(foot[int(i)*mw : (int(i)+1)*mw]) }
	rsOf := func(i int32) asgraph.Bitset { return asgraph.Bitset(rs[int(i)*xw : (int(i)+1)*xw]) }

	// Phase 1: per-metro candidate enumeration over a bounded worker
	// pool. Each metro produces an independent candidate slice; claiming
	// a pair at its lowest shared metro deduplicates without any shared
	// state.
	cands := w.enumeratePeerCandidates(footOf, rsOf, k)

	// Phase 2: sequential, ordered materialization — the only part that
	// consumes rng. Candidates are already in canonical (a,b) order.
	var sharedScratch, rsScratch []int
	rsMetros := map[int]bool{}
	for _, c := range cands {
		a, b := int(c.a), int(c.b)
		pr := Pair{A: a, B: b}
		// Shared route server forces multilateral peering.
		clear(rsMetros)
		if c.hasRS {
			rsScratch = rsOf(c.a).AppendCommon(rsOf(c.b), rsScratch[:0])
			for _, ix := range rsScratch {
				if rng.Float64() < 0.95 {
					rsMetros[g.IXPs[ix].Metro] = true
				}
			}
		}
		if !c.wouldPeer && len(rsMetros) == 0 {
			continue
		}
		sharedScratch = footOf(c.a).AppendCommon(footOf(c.b), sharedScratch[:0])
		var metros []int
		for _, m := range sharedScratch {
			if rsMetros[m] {
				metros = append(metros, m)
				continue
			}
			if c.wouldPeer && rng.Float64() < w.Cfg.LinkMaterializeProb {
				metros = append(metros, m)
			}
		}
		if len(metros) == 0 && c.wouldPeer {
			metros = append(metros, sharedScratch[rng.Intn(len(sharedScratch))])
		}
		if len(metros) == 0 {
			continue
		}
		g.AddPeerUnique(a, b)
		w.Rel[pr] = asgraph.P2P
		w.LinkMetros[pr] = metros
	}
	// Tier1 mesh links interconnect everywhere.
	for pr, rel := range w.Rel {
		if rel == asgraph.P2P && w.LinkMetros[pr] == nil {
			w.LinkMetros[pr] = g.SharedMetros(pr.A, pr.B)
		}
	}
}

// enumeratePeerCandidates fans metros out through par.For.
// For metro m each member pair (a<b) is tested: skip Tier1s, skip pairs
// whose lowest shared metro is not m (they are claimed elsewhere), skip
// transit-linked pairs, then score. Pairs that would peer or share a
// route server become candidates. The merged result is sorted into
// canonical (a,b) order, which makes the outcome independent of both the
// worker count and the metro partition.
func (w *World) enumeratePeerCandidates(footOf func(int32) asgraph.Bitset, rsOf func(int32) asgraph.Bitset, k int) []peerCand {
	perMetro := make([][]peerCand, len(w.G.Metros))
	par.For(len(perMetro), 0, func(_, m int) {
		perMetro[m] = w.scanMetroPairs(m, footOf, rsOf, k)
	})

	total := 0
	for _, pc := range perMetro {
		total += len(pc)
	}
	out := make([]peerCand, 0, total)
	for _, pc := range perMetro {
		out = append(out, pc...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].a != out[j].a {
			return out[i].a < out[j].a
		}
		return out[i].b < out[j].b
	})
	return out
}

// scanMetroPairs scores the member pairs of one metro, claiming only the
// pairs whose lowest shared metro is this one.
func (w *World) scanMetroPairs(m int, footOf func(int32) asgraph.Bitset, rsOf func(int32) asgraph.Bitset, k int) []peerCand {
	g := w.G
	members := g.Metros[m].Members
	penalty := densityPenalty(len(members)) + globalPenalty(g.N())
	var out []peerCand
	for ii := 0; ii < len(members); ii++ {
		a := members[ii]
		asA := &g.ASes[a]
		if asA.Class == asgraph.Tier1 {
			continue // Tier1s only peer with each other (buildTransit)
		}
		fa := footOf(int32(a))
		ra := w.Latent.Row(a)
		rsA := rsOf(int32(a))
		biasA := openBias(asA.Policy)
		for jj := ii + 1; jj < len(members); jj++ {
			b := members[jj]
			asB := &g.ASes[b]
			if asB.Class == asgraph.Tier1 {
				continue
			}
			// Claim each colocated pair exactly once: at the lowest
			// metro both are present in.
			fb := footOf(int32(b))
			if fa.FirstCommon(fb) != m {
				continue
			}
			// Transit-linked pairs were decided in buildTransit. The
			// provider lists are tiny (≤3 for edges), so two scans
			// replace the historical Rel-map lookup.
			if g.HasProvider(a, b) || g.HasProvider(b, a) {
				continue
			}
			var dot float64
			rb := w.Latent.Row(b)
			for d := 0; d < k; d++ {
				dot += ra[d] * rb[d]
			}
			// The latent strategy term dominates: public features inform
			// but do not determine peering (Fig. 1's moderate
			// correlations), so link history carries signal that features
			// alone cannot provide.
			score := 0.55*dot + 0.55*(biasA+openBias(asB.Policy)) +
				0.6*complementarity(asA.Traffic, asB.Traffic) - penalty
			if asA.Country == asB.Country {
				score += 0.3
			}
			wouldPeer := score > 3.8
			hasRS := rsA.Intersects(rsOf(int32(b)))
			if !wouldPeer && !hasRS {
				continue
			}
			out = append(out, peerCand{a: int32(a), b: int32(b), wouldPeer: wouldPeer, hasRS: hasRS})
		}
	}
	return out
}

// assignTransitMetros chooses, for every c2p pair, the metros where the
// interconnection physically exists: each shared metro with probability
// 0.8, at least one guaranteed.
func (w *World) assignTransitMetros(rng *rand.Rand) {
	// Iterate pairs in deterministic order: map iteration would consume
	// rng draws in random order and break reproducibility.
	var pairs []Pair
	for pr, rel := range w.Rel {
		if rel == asgraph.C2P {
			pairs = append(pairs, pr)
		}
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].A != pairs[j].A {
			return pairs[i].A < pairs[j].A
		}
		return pairs[i].B < pairs[j].B
	})
	var shared []int
	for _, pr := range pairs {
		fa, fb := w.G.ASes[pr.A].Footprint(), w.G.ASes[pr.B].Footprint()
		shared = fa.AppendCommon(fb, shared[:0])
		if len(shared) == 0 {
			// Customer picked a Tier1 fallback without colocation; place
			// the interconnect at the customer's home metro (a remote
			// peering / PNI long-haul).
			var cust int
			if w.CustomerIsA[pr] {
				cust = pr.A
			} else {
				cust = pr.B
			}
			shared = append(shared, w.G.ASes[cust].Metros[0])
		}
		var metros []int
		for _, m := range shared {
			if rng.Float64() < 0.8 {
				metros = append(metros, m)
			}
		}
		if len(metros) == 0 {
			metros = append(metros, shared[rng.Intn(len(shared))])
		}
		w.LinkMetros[pr] = metros
	}
}

// buildTruthMatrices derives every metro's ground truth from the
// link-metro map.
func (w *World) buildTruthMatrices() {
	all := make(map[int]bool, len(w.G.Metros))
	for mi := range w.G.Metros {
		all[mi] = true
	}
	w.rebuildTruths(all)
}

func (w *World) buildFacilities(rng *rand.Rand) {
	for mi, m := range w.G.Metros {
		nFac := 1 + len(m.Members)/80
		facs := make([][]int, nFac)
		for _, ai := range m.Members {
			f := rng.Intn(nFac)
			facs[f] = append(facs[f], ai)
		}
		w.Facilities[mi] = facs
	}
}

// placeProbes selects vantage-point ASes per metro according to the
// configured coverage, preferring edge networks (where real Atlas probes
// live) but including some transits.
func (w *World) placeProbes(rng *rand.Rand) {
	chosen := map[int]bool{}
	probeAt := map[Pair]bool{} // (AS, metro) pairs with a probe
	for mi, ms := range w.Cfg.Metros {
		members := w.G.Metros[mi].Members
		want := int(ms.VPCoverage * float64(len(members)))
		perm := rng.Perm(len(members))
		got := 0
		for _, pi := range perm {
			if got >= want {
				break
			}
			ai := members[pi]
			got++
			chosen[ai] = true
			key := Pair{A: ai, B: mi}
			if !probeAt[key] {
				probeAt[key] = true
				w.Probes = append(w.Probes, Probe{AS: ai, Metro: mi})
			}
		}
	}
	w.probeSet = chosen
	for ai := range chosen {
		w.ProbeASes = append(w.ProbeASes, ai)
	}
	sort.Ints(w.ProbeASes)
	// Target responsiveness: most ASes answer probes; a fraction do not.
	w.Responsive = make([]bool, w.G.N())
	for i := range w.Responsive {
		w.Responsive[i] = rng.Float64() < 0.85
	}
}

// HasProbe reports whether AS i hosts a vantage point.
func (w *World) HasProbe(i int) bool { return w.probeSet[i] }

// ProbeInCone reports whether any AS in the customer cone of i hosts a
// vantage point (the "VP in customer cone" categories of §3.3.2).
func (w *World) ProbeInCone(i int) bool {
	for _, c := range w.G.CustomerCone(i) {
		if w.probeSet[int(c)] {
			return true
		}
	}
	return false
}

// InterconnectMetros returns the metros where a and b interconnect (nil if
// they do not).
func (w *World) InterconnectMetros(a, b int) []int {
	return w.LinkMetros[MakePair(a, b)]
}

// RelOf returns the relationship between a and b and whether they are
// interconnected at all.
func (w *World) RelOf(a, b int) (asgraph.Rel, bool) {
	r, ok := w.Rel[MakePair(a, b)]
	return r, ok
}

// SameFacility reports whether a and b share a facility at metro m.
func (w *World) SameFacility(a, b, m int) bool {
	for _, fac := range w.Facilities[m] {
		ina, inb := false, false
		for _, x := range fac {
			if x == a {
				ina = true
			}
			if x == b {
				inb = true
			}
		}
		if ina && inb {
			return true
		}
	}
	return false
}

// PrimaryMetros returns the indices of metros marked Primary in the config.
func (w *World) PrimaryMetros() []int {
	var out []int
	for i, ms := range w.Cfg.Metros {
		if ms.Primary {
			out = append(out, i)
		}
	}
	return out
}
