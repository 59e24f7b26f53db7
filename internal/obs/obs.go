// Package obs turns raw traceroutes into the estimated connectivity matrix
// E_m of §3.4: it detects direct inter-AS crossings (link evidence),
// recognizes intermediate-transit patterns (non-link evidence), tracks
// routing consistency (Appx. D.5) and well-positioned vantage points, and
// applies the geographic-transferability weights (±1, ±0.7, ±0.4, ±0.1)
// when folding observations from other metros into a target metro's
// estimate.
//
// Since PR 4 the package is an incremental evidence layer rather than a
// pile of mutable maps:
//
//   - Evidence accrues append-only. AddTrace only ever adds records
//     (direct crossing metros, transit observations, probe coverage) and
//     appends every pair whose evidence inputs changed to a dirty log,
//     with derived indices (well-positioned gates, routing-consistency
//     conflicts) maintained as it goes.
//   - Clone is an O(1) copy-on-write handle: base and snapshot share every
//     structure until one of them mutates, at which point the mutating
//     store lazily copies just the structures it touches. Divergent
//     snapshots (the engine's per-metro isolation unit) therefore cost
//     nothing until — and proportionally to — what they actually ingest.
//   - Estimates are delta-maintained. An Estimate remembers the dirty-log
//     watermark it has consumed; Store.Refresh re-derives only the pairs
//     touched since, falling back to an in-place full rebuild when the
//     routing-consistency inputs changed. The refreshed estimate is
//     byte-identical to a from-scratch rebuild (pinned by equivalence
//     property/fuzz tests).
//
// A Store is not safe for concurrent use, but distinct stores related by
// Clone are fully independent: interleaved or concurrent mutation of a
// base and its snapshots is race-free and never leaks evidence in either
// direction (lazily copied structures are only ever read once shared).
// Clone itself may run concurrently with other Clones and with reads of
// the same store, but not with its mutations.
package obs

import (
	"sync"

	"metascritic/internal/asgraph"
	"metascritic/internal/ipmap"
	"metascritic/internal/traceroute"
)

// TransferWeight maps a geographic scope to the paper's evidence weight.
func TransferWeight(s asgraph.GeoScope) float64 {
	switch s {
	case asgraph.SameMetro:
		return 1.0
	case asgraph.SameCountry:
		return 0.7
	case asgraph.SameContinent:
		return 0.4
	default:
		return 0.1
	}
}

// probeKey identifies a vantage point. AS and metro indices are int32 in
// the hot record types: the store holds millions of these records at
// Internet scale (100k ASes), and int32 halves the key/record widths
// while covering any index space the graph substrate (itself int32
// adjacency) can represent.
type probeKey struct{ as, metro int32 }

// seenKey identifies one probe-coverage fact: the probe at (vpAS, vpMetro)
// has traversed an interface of AS `as` at metro `metro`. It doubles as
// the key of the well-positioned gate index (§3.4): a transit observation
// whose probe lacks exactly this coverage is parked under it until the
// coverage arrives.
type seenKey struct{ vpAS, vpMetro, as, metro int32 }

// transitObs is one observed "i → transit → j" pattern (20 bytes packed;
// these dominate the transit map's footprint at scale).
type transitObs struct {
	metro int32 // metro of the crossing into the transit
	near  int32 // the AS on the probe side of the transit (i in the paper)
	probe probeKey
	epoch uint32 // store epoch the pattern was observed in (see epoch.go)
}

// Finding summarizes what one traceroute taught us: a direct crossing (or
// transit pattern) between a pair at a metro.
type Finding struct {
	Pair   asgraph.Pair
	Metro  int
	Direct bool // true: link evidence; false: transit (non-link) evidence
}

// Reveals reports whether findings carry evidence, either way, about the
// pair (a, b): whether the trace that produced them was informative about
// the link it targeted.
func Reveals(findings []Finding, a, b int) bool {
	want := asgraph.MakePair(a, b)
	for _, f := range findings {
		if f.Pair == want {
			return true
		}
	}
	return false
}

// Store accumulates traceroute-derived knowledge across all metros.
//
// Every structure below is append-only at the record level (metros are
// added to direct sets, observations to transit lists, coverage facts to
// probeSeen — nothing is ever removed), which is what makes both the
// copy-on-write Clone and the delta-maintained estimates sound: evidence
// for a pair can strengthen but never vanish, so a pair absent from the
// dirty log since an estimate's watermark is guaranteed unchanged.
type Store struct {
	g       *asgraph.Graph
	resolve func(ipmap.Addr) (ipmap.Info, bool)

	// ident is this store's identity token: Estimates record it so
	// Refresh can tell whether they were derived from this store or from
	// a relative across a Clone split. It is a pointer to a non-zero-size
	// struct (unique address per store) whose contents are always equal,
	// so reflect.DeepEqual of two equivalent Estimates from different
	// stores still holds.
	ident *storeIdent

	// cowMu guards shared (and the slice-header clamping in Clone) so
	// concurrent Clones of one store are safe.
	cowMu  sync.Mutex
	shared cowGroup

	// direct[pair] = sorted metros with an observed direct crossing.
	direct map[asgraph.Pair][]int32
	// directEpoch[pair][i] = store epoch direct[pair][i] was last
	// observed in (parallel rows; cowDirect group, see epoch.go).
	directEpoch map[asgraph.Pair][]uint32
	// transit[pair] = observed intermediate-transit patterns, in arrival
	// order.
	transit map[asgraph.Pair][]transitObs
	// probeSeen records probe coverage facts (flat — one entry per
	// (probe, AS, metro) interface traversal) for the well-positioned
	// test.
	probeSeen map[seenKey]bool
	// probeTraces counts traces issued per probe.
	probeTraces map[probeKey]int

	// gate[k] = pairs with transit observations waiting on probe coverage
	// k to pass the well-positioned test; when the coverage arrives the
	// pairs are marked dirty and the gate is removed (gates only open).
	gate map[seenKey][]asgraph.Pair
	// minConflict[pair] = smallest geographic scope at which the pair has
	// both direct and transit evidence (contradictory routing, Appx. D.5).
	minConflict map[asgraph.Pair]asgraph.GeoScope

	// dirty is the append-only evidence log: one entry per pair whose
	// estimate inputs (direct metros, transit observations, gate status)
	// changed. Estimates consume it from their recorded watermark.
	dirty []asgraph.Pair
	// conflicts is the append-only log of routing-consistency input
	// changes: the scope of each new (or tightened) contradiction. The
	// per-scope consistency caches and the NegMetascritic estimates
	// invalidate against it.
	conflicts []asgraph.GeoScope

	// epoch is the store's topology epoch; epochLog records which pairs
	// gained evidence stamps in which epoch (append-only, nondecreasing)
	// so AdvanceEpoch can dirty the pairs crossing the stale boundary.
	epoch    uint32
	epochLog []epochMark

	// consistent caches ConsistentASes per scope, each entry stamped with
	// the conflicts-log length it has consumed. Never shared across
	// Clone (it is cheap to rebuild from minConflict and mutates on
	// read).
	consistent map[asgraph.GeoScope]*consistEntry

	// trScratch holds AddTrace's per-call working buffers (hop
	// resolution, segment collapse), reused across traces. Clone builds
	// the snapshot from a fresh literal, so base and snapshot never
	// alias these buffers; the findings a caller keeps are always
	// freshly allocated.
	trScratch struct {
		hops []hopInfo
		gaps []bool
		segs []traceSeg
	}
}

// NewStore builds an empty store. resolve is the hop-resolution function
// (normally Registry.Resolve).
func NewStore(g *asgraph.Graph, resolve func(ipmap.Addr) (ipmap.Info, bool)) *Store {
	return &Store{
		g:           g,
		resolve:     resolve,
		ident:       &storeIdent{},
		direct:      map[asgraph.Pair][]int32{},
		directEpoch: map[asgraph.Pair][]uint32{},
		transit:     map[asgraph.Pair][]transitObs{},
		probeSeen:   map[seenKey]bool{},
		probeTraces: map[probeKey]int{},
		gate:        map[seenKey][]asgraph.Pair{},
		minConflict: map[asgraph.Pair]asgraph.GeoScope{},
	}
}

// hopInfo is a resolved responsive hop.
type hopInfo struct {
	as    int
	metro int
	ixp   int
}

// traceSeg is one AS-level segment of a collapsed trace.
type traceSeg struct {
	as       int
	metro    int  // metro where we first saw the AS on this trace
	adjacent bool // crossing from the previous segment had no gap
}

// AddTrace ingests one traceroute and returns what it learned. Unresponsive
// hops break adjacency: a crossing is only derived from two consecutive
// responsive hops (the paper's definition of link observation).
//
// Every evidence record the trace contributes is appended to the store's
// logs; the pairs whose estimate inputs changed (including pairs whose
// older transit observations just became licensed by this trace's probe
// coverage) accumulate in the dirty log that Refresh drains.
func (s *Store) AddTrace(tr traceroute.Trace) []Finding {
	pk := probeKey{int32(tr.VPAS), int32(tr.VPMetro)}
	s.ownProbes()
	s.probeTraces[pk]++

	// Resolve responsive hops (into store-owned scratch; see trScratch).
	hops := s.trScratch.hops[:0]
	gaps := s.trScratch.gaps[:0] // gaps[i]: an unresponsive hop preceded hops[i]
	gap := false
	for _, h := range tr.Hops {
		if !h.Responsive {
			gap = true
			continue
		}
		inf, ok := s.resolve(h.Addr)
		if !ok {
			gap = true
			continue
		}
		hops = append(hops, hopInfo{inf.AS, inf.Metro, inf.IXP})
		gaps = append(gaps, gap)
		gap = false
		s.coverProbe(pk, inf.AS, inf.Metro)
	}
	s.trScratch.hops, s.trScratch.gaps = hops, gaps

	var findings []Finding

	// Collapse to AS-level segments while noting crossings between
	// consecutive responsive hops.
	segs := s.trScratch.segs[:0]
	for i, h := range hops {
		if len(segs) > 0 && segs[len(segs)-1].as == h.as {
			continue
		}
		segs = append(segs, traceSeg{as: h.as, metro: h.metro, adjacent: !gaps[i]})
	}
	s.trScratch.segs = segs

	// Direct crossings: adjacent segments with no gap between them.
	for i := 1; i < len(segs); i++ {
		if !segs[i].adjacent {
			continue
		}
		x, y := segs[i-1].as, segs[i].as
		pr := asgraph.MakePair(x, y)
		// Geolocate the crossing: the ingress hop's metro (IXP prefixes
		// have already pinned IXP crossings to the IXP metro during
		// resolution).
		m := segs[i].metro
		s.addDirect(pr, m)
		findings = append(findings, Finding{Pair: pr, Metro: m, Direct: true})
	}

	// Transit patterns: x → t → y where t is a provider of x or of y
	// according to the public relationship data, with no gaps.
	for i := 2; i < len(segs); i++ {
		if !segs[i].adjacent || !segs[i-1].adjacent {
			continue
		}
		x, t, y := segs[i-2].as, segs[i-1].as, segs[i].as
		if x == y {
			continue
		}
		if !s.g.HasProvider(x, t) && !s.g.HasProvider(y, t) {
			continue
		}
		pr := asgraph.MakePair(x, y)
		m := segs[i-1].metro // where the flow entered the transit
		s.addTransit(pr, transitObs{metro: int32(m), near: int32(x), probe: pk})
		findings = append(findings, Finding{Pair: pr, Metro: m, Direct: false})
	}
	return findings
}

// coverProbe records one probe-coverage fact and opens any well-positioned
// gates waiting on it: the pairs whose transit observations just became
// licensed are appended to the dirty log so delta-refreshed estimates
// re-derive them.
func (s *Store) coverProbe(pk probeKey, as, metro int) {
	k := seenKey{pk.as, pk.metro, int32(as), int32(metro)}
	if s.probeSeen[k] {
		return
	}
	s.probeSeen[k] = true // probes group already owned by AddTrace
	if len(s.gate[k]) > 0 {
		s.ownIndex()
		s.dirty = appendClamped(s.dirty, s.gate[k]...)
		delete(s.gate, k)
	}
}

// addDirect records a direct crossing for pair pr at metro m, maintaining
// the conflict index and the dirty log.
func (s *Store) addDirect(pr asgraph.Pair, m int) {
	row := s.direct[pr]
	pos, ok := searchMetros(row, int32(m))
	if ok {
		if s.directEpoch[pr][pos] == s.epoch {
			return // already known this epoch: evidence unchanged
		}
		// Re-observation in a later epoch re-stamps the record (restoring
		// full weight if it had gone stale) — an evidence input change,
		// so it is logged like any other.
		s.ownDirect()
		s.directEpoch[pr][pos] = s.epoch
		s.markEpoch(pr)
		s.dirty = appendClamped(s.dirty, pr)
		return
	}
	s.ownDirect()
	row = s.direct[pr]
	row = append(row, 0)
	copy(row[pos+1:], row[pos:])
	row[pos] = int32(m)
	s.direct[pr] = row
	erow := s.directEpoch[pr]
	erow = append(erow, 0)
	copy(erow[pos+1:], erow[pos:])
	erow[pos] = s.epoch
	s.directEpoch[pr] = erow
	s.markEpoch(pr)
	// A new direct metro can create (or tighten) a contradiction with any
	// existing transit observation of the pair.
	if tl := s.transit[pr]; len(tl) > 0 {
		best := asgraph.NumGeoScopes
		for _, to := range tl {
			if sc := s.g.ScopeOfMetros(m, int(to.metro)); sc < best {
				best = sc
			}
		}
		s.noteConflict(pr, best)
	}
	s.dirty = appendClamped(s.dirty, pr)
}

// addTransit records one transit observation, maintaining the conflict
// index, the well-positioned gate index and the dirty log.
func (s *Store) addTransit(pr asgraph.Pair, to transitObs) {
	s.ownTransit()
	to.epoch = s.epoch
	s.transit[pr] = append(s.transit[pr], to)
	s.markEpoch(pr)
	if dm := s.direct[pr]; len(dm) > 0 {
		best := asgraph.NumGeoScopes
		for _, m := range dm {
			if sc := s.g.ScopeOfMetros(int(m), int(to.metro)); sc < best {
				best = sc
			}
		}
		s.noteConflict(pr, best)
	}
	// If the observing probe lacks the coverage that licenses reading this
	// detour as non-link evidence, park the pair under the gate so the
	// coverage's arrival dirties it. Gates only ever open: probeTraces is
	// already positive for this probe (its own trace got us here), so the
	// well-positioned test can only flip false → true.
	k := seenKey{to.probe.as, to.probe.metro, to.near, to.metro}
	if !s.probeSeen[k] {
		s.ownIndex()
		if !containsPair(s.gate[k], pr) {
			s.gate[k] = append(s.gate[k], pr)
		}
	}
	s.dirty = appendClamped(s.dirty, pr)
}

// searchMetros returns the position of m in the sorted metro list (or its
// insertion point) and whether it is present.
func searchMetros(row []int32, m int32) (int, bool) {
	lo, hi := 0, len(row)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if row[mid] < m {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(row) && row[lo] == m
}

func containsPair(list []asgraph.Pair, pr asgraph.Pair) bool {
	for _, p := range list {
		if p == pr {
			return true
		}
	}
	return false
}

// DirectMetros returns the metros where a direct crossing between the pair
// has been observed (nil if none).
func (s *Store) DirectMetros(a, b int) []int {
	row := s.direct[asgraph.MakePair(a, b)]
	if row == nil {
		return nil
	}
	out := make([]int, len(row))
	for i, m := range row {
		out[i] = int(m) // rows are kept sorted by addDirect
	}
	return out
}

// wellPositioned reports whether the probe can judge links of AS i at
// metro m: it has traversed an interface of i at m, or has issued no
// traceroute at all (§3.4).
func (s *Store) wellPositioned(pk probeKey, i, m int32) bool {
	if s.probeTraces[pk] == 0 {
		return true
	}
	return s.probeSeen[seenKey{pk.as, pk.metro, i, m}]
}
