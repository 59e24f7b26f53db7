package eval

import (
	"context"
	"math/rand"
	"sort"

	"metascritic"
	"metascritic/internal/asgraph"
	"metascritic/internal/bgp"
	"metascritic/internal/ipmap"
)

// ValidationSet is one external validation dataset for a metro: a set of
// member pairs with link labels. Recall-only datasets contain positives
// only (§4.1: "the other validation datasets only evaluate the recall").
type ValidationSet struct {
	Name       string
	Pairs      [][2]int // member-row index pairs
	Labels     []bool
	RecallOnly bool
}

// Score evaluates a result against the dataset at threshold thr.
func (v *ValidationSet) Score(res *metascritic.Result, thr float64) (precision, recall float64) {
	tp, fp, fn := 0, 0, 0
	for k, pr := range v.Pairs {
		pred := res.Ratings.At(pr[0], pr[1]) >= thr
		switch {
		case pred && v.Labels[k]:
			tp++
		case pred && !v.Labels[k]:
			fp++
		case !pred && v.Labels[k]:
			fn++
		}
	}
	if tp+fp > 0 {
		precision = float64(tp) / float64(tp+fp)
	}
	if tp+fn > 0 {
		recall = float64(tp) / float64(tp+fn)
	}
	return precision, recall
}

// publicView returns (lazily computes) the collector-visible links: the
// public BGP view of §1. Monitors sit in Tier1s, large ISPs and a biased
// sample of other ASes.
func (h *Harness) publicView() map[asgraph.Pair]bool {
	if h.pubView != nil {
		return h.pubView
	}
	g := h.W.G
	rng := rand.New(rand.NewSource(h.Seed + 77))
	var monitors []int
	for _, a := range g.ASes {
		switch a.Class {
		case asgraph.Tier1, asgraph.LargeISP:
			monitors = append(monitors, a.Index)
		default:
			if rng.Float64() < 0.04 {
				monitors = append(monitors, a.Index)
			}
		}
	}
	dests := make([]int, g.N())
	for i := range dests {
		dests[i] = i
	}
	cache := bgp.NewRouteCache(bgp.FromGraph(g))
	// Warm the whole destination sweep over the worker pool before the
	// serial link walk — the propagations dominate, the walk is cheap.
	cache.Warm(context.Background(), dests, 0)
	h.pubView = bgp.VisibleLinks(cache, monitors, dests)
	h.pubCache = cache
	return h.pubView
}

// ValidationSets synthesizes the six external datasets of §4.1 for a
// metro's result. Each mirrors the sampling bias of its real counterpart:
//
//	cloud      — the full rows of two hypergiant members (closest to
//	             ground truth: positives and negatives; Vultr/Google)
//	communities— true links visible on collector paths (BGP communities)
//	lg         — links adjacent to a few transit ASes (Looking Glasses)
//	igdb       — linked pairs colocated only at this metro (iGDB)
//	bilateral  — IXP-member links not on the route server
//	multilateral — route-server mesh links
//	alias      — a thin random sample of true links (alias resolution)
func (h *Harness) ValidationSets(res *metascritic.Result, seed int64) []*ValidationSet {
	g := h.W.G
	truth := h.W.Truths[res.Metro]
	rng := rand.New(rand.NewSource(seed))
	n := len(res.Members)
	memberRow := res.Estimate.Index

	var sets []*ValidationSet

	// Cloud ground truth: two hypergiants present at the metro.
	cloud := &ValidationSet{Name: "Ground Truth (clouds)"}
	var hyper []int
	for _, ai := range res.Members {
		if g.ASes[ai].Class == asgraph.Hypergiant {
			hyper = append(hyper, ai)
		}
	}
	sort.Ints(hyper)
	if len(hyper) > 2 {
		hyper = hyper[:2]
	}
	for _, hy := range hyper {
		hi := memberRow[hy]
		for j := 0; j < n; j++ {
			if j == hi {
				continue
			}
			cloud.Pairs = append(cloud.Pairs, [2]int{hi, j})
			cloud.Labels = append(cloud.Labels, truth.M.Has(hi, j))
		}
	}
	sets = append(sets, cloud)

	// BGP communities: links whose crossing an AS stamped with a location
	// community on a collector-visible path (Appx. H). Stamping ASes are
	// a deterministic minority; intermediate ASes strip communities with
	// some probability, so coverage is sparse — exactly the real
	// dataset's bias.
	commPairs := h.communityTaggedLinks(res.Metro)
	comm := &ValidationSet{Name: "BGP Community", RecallOnly: true}
	for pr := range commPairs {
		i, ok1 := memberRow[pr.A]
		j, ok2 := memberRow[pr.B]
		if !ok1 || !ok2 || !truth.M.Has(i, j) {
			continue
		}
		comm.Pairs = append(comm.Pairs, [2]int{i, j})
		comm.Labels = append(comm.Labels, true)
	}

	// The iGDB hint uses the *public, incomplete* footprint database, not
	// ground truth: pairs whose reported footprints overlap only at this
	// metro must interconnect here if they interconnect at all.
	geo := h.geoDB()
	igdbSet := &ValidationSet{Name: "iGDB Geographic Hint", RecallOnly: true}
	alias := &ValidationSet{Name: "IP Aliasing", RecallOnly: true}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if !truth.M.Has(i, j) {
				continue
			}
			a, b := res.Members[i], res.Members[j]
			if geo.OnlyColocatedAt(a, b, res.Metro) {
				igdbSet.Pairs = append(igdbSet.Pairs, [2]int{i, j})
				igdbSet.Labels = append(igdbSet.Labels, true)
			}
			if rng.Float64() < 0.12 {
				alias.Pairs = append(alias.Pairs, [2]int{i, j})
				alias.Labels = append(alias.Labels, true)
			}
		}
	}
	sets = append(sets, comm, igdbSet, alias)

	// Looking glasses: best-route views of a few transit members.
	lg := &ValidationSet{Name: "Looking Glass", RecallOnly: true}
	var transits []int
	for _, ai := range res.Members {
		if g.ASes[ai].Class == asgraph.Transit || g.ASes[ai].Class == asgraph.LargeISP {
			transits = append(transits, ai)
		}
	}
	rng.Shuffle(len(transits), func(a, b int) { transits[a], transits[b] = transits[b], transits[a] })
	if len(transits) > 12 {
		transits = transits[:12]
	}
	for _, tr := range transits {
		ti := memberRow[tr]
		for j := 0; j < n; j++ {
			if j != ti && truth.M.Has(ti, j) {
				lg.Pairs = append(lg.Pairs, [2]int{ti, j})
				lg.Labels = append(lg.Labels, true)
			}
		}
	}
	sets = append(sets, lg)

	// IXP peering matrices: bilateral vs multilateral.
	bilateral := &ValidationSet{Name: "Bilateral IXP", RecallOnly: true}
	multilateral := &ValidationSet{Name: "Multilateral IXP", RecallOnly: true}
	for _, ix := range g.IXPs {
		if ix.Metro != res.Metro {
			continue
		}
		for a := 0; a < len(ix.Members); a++ {
			for b := a + 1; b < len(ix.Members); b++ {
				ai, bi := ix.Members[a], ix.Members[b]
				i, ok1 := memberRow[ai]
				j, ok2 := memberRow[bi]
				if !ok1 || !ok2 || !truth.M.Has(i, j) {
					continue
				}
				onRS := g.ASes[ai].OnRouteServer(ix.Index) && g.ASes[bi].OnRouteServer(ix.Index)
				if onRS {
					multilateral.Pairs = append(multilateral.Pairs, [2]int{i, j})
					multilateral.Labels = append(multilateral.Labels, true)
				} else {
					bilateral.Pairs = append(bilateral.Pairs, [2]int{i, j})
					bilateral.Labels = append(bilateral.Labels, true)
				}
			}
		}
	}
	sets = append(sets, bilateral, multilateral)
	return sets
}

// communityTaggedLinks reproduces the BGP location-community pipeline of
// Appx. H: walk every collector-visible best path; at each crossing x→y,
// if y stamps location communities (a deterministic ~30% of ASes) and no
// AS between y and the collector strips them (~25% each), the collector
// learns "x—y interconnects at metro m". Only crossings geolocated to the
// target metro are returned.
func (h *Harness) communityTaggedLinks(metro int) map[asgraph.Pair]bool {
	if h.commLinks == nil {
		h.commLinks = map[int]map[asgraph.Pair]bool{}
	}
	if l, ok := h.commLinks[metro]; ok {
		return l
	}
	g := h.W.G
	h.publicView() // ensures pubCache exists
	stamps := func(as int) bool { return ipmap.Hash01From(ipmap.Hash2(as, 0xc0117)) < 0.30 }
	strips := func(as, dst int) bool { return ipmap.Hash01From(ipmap.Hash3(as, dst, 0x57717)) < 0.25 }

	rng := rand.New(rand.NewSource(h.Seed + 77))
	var monitors []int
	for _, a := range g.ASes {
		switch a.Class {
		case asgraph.Tier1, asgraph.LargeISP:
			monitors = append(monitors, a.Index)
		default:
			if rng.Float64() < 0.04 {
				monitors = append(monitors, a.Index)
			}
		}
	}
	out := map[asgraph.Pair]bool{}
	var pathBuf []int
	for d := 0; d < g.N(); d++ {
		routes := h.pubCache.RoutesTo(d)
		for _, m := range monitors {
			p := routes.AppendPathFrom(pathBuf[:0], m)
			pathBuf = p
			// Walk from the collector toward the origin; communities are
			// stamped at the receiver side of each crossing and must
			// survive every AS between the stamper and the collector.
			for i := 0; i+1 < len(p); i++ {
				x, y := p[i+1], p[i] // y received the route from x
				if !stamps(y) {
					continue
				}
				survived := true
				for k := 0; k < i; k++ {
					if strips(p[k], d) {
						survived = false
						break
					}
				}
				if !survived {
					continue
				}
				cm := h.P.Engine.CrossingOf(x, y, d*97+g.ASes[d].Metros[0], g.ASes[x].Metros[0])
				if cm == metro {
					out[asgraph.MakePair(x, y)] = true
				}
			}
		}
	}
	h.commLinks[metro] = out
	return out
}

// MeasuredLinks returns the AS pairs whose direct crossings the store
// observed at the metro (the "+M" link set of §6), via the result's
// measured estimate.
func MeasuredLinks(res *metascritic.Result) []asgraph.Pair {
	var out []asgraph.Pair
	n := len(res.Members)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if v, ok := res.Estimate.Value(res.Members[i], res.Members[j]); ok && v > 0 {
				out = append(out, asgraph.MakePair(res.Members[i], res.Members[j]))
			}
		}
	}
	return out
}

// InferredLinks returns pairs whose completed rating clears thr and that
// were not directly measured.
func InferredLinks(res *metascritic.Result, thr float64) []asgraph.Pair {
	var out []asgraph.Pair
	n := len(res.Members)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if res.Ratings.At(i, j) < thr {
				continue
			}
			if v, ok := res.Estimate.Value(res.Members[i], res.Members[j]); ok && v > 0 {
				continue // measured, not inferred
			}
			out = append(out, asgraph.MakePair(res.Members[i], res.Members[j]))
		}
	}
	return out
}
