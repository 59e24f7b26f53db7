package netsim

// Topology evolution: the streaming counterpart of Generate. A generated
// world is frozen at Epoch 0; Evolve derives a batch of churn events —
// link withdrawals, full depeerings, new link materializations, new-AS
// arrivals and IXP joins — from the current world plus an rng, applies
// it, and returns the batch so replicas can replay it with Apply (no rng
// needed: every random outcome is resolved into the event payload).
//
// Evolve follows Generate's determinism contract: candidate enumeration
// runs in parallel over a worker pool but is a pure function of the
// world, and the single sequential commit pass is the only rng consumer,
// iterating candidates in canonical order — so a given (world, seed)
// yields a byte-identical batch and post-batch world at any worker
// count.

import (
	"fmt"
	"math/rand"
	"sort"

	"metascritic/internal/asgraph"
	"metascritic/internal/mat"
	"metascritic/internal/par"
)

// EventKind classifies one evolution event.
type EventKind uint8

// Evolution event kinds.
const (
	// LinkDown withdraws a peering link at one metro (Metros[0]); when it
	// was the pair's last interconnection the AS-level link disappears.
	LinkDown EventKind = iota
	// Depeer removes a peering pair entirely, at every metro.
	Depeer
	// LinkUp materializes a peering between A and B at Metros (creating
	// the AS-level link if absent, else adding metros to it).
	LinkUp
	// NewASArrival adds the AS described by New to the world.
	NewASArrival
	// IXPJoin adds AS A to IXP (optionally to its route server). Links a
	// route-server join induces are separate LinkUp events in the batch.
	IXPJoin
)

var eventKindNames = [...]string{"LinkDown", "Depeer", "LinkUp", "NewASArrival", "IXPJoin"}

func (k EventKind) String() string {
	if int(k) >= len(eventKindNames) {
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
	return eventKindNames[k]
}

// NewAS is the payload of a NewASArrival event: everything needed to
// replay the arrival without an rng.
type NewAS struct {
	ASN               int
	Class             asgraph.Class
	Policy            asgraph.PeeringPolicy
	Traffic           asgraph.TrafficProfile
	Eyeballs          int
	AddrSpace         int
	Country           int
	ConsistentRouting bool
	// Metros is the footprint (sorted); Metros[0] is the home metro.
	Metros []int
	// Providers lists the AS indices the newcomer buys transit from.
	Providers []int
	// Latent is the newcomer's hidden strategy vector.
	Latent []float64
	// Responsive reports whether the AS answers probes.
	Responsive bool
}

// Event is one replayable topology mutation.
type Event struct {
	Kind EventKind
	// A, B are the endpoint AS indices for link events; A is the joining
	// AS for IXPJoin.
	A, B int
	// IXP is the exchange index for IXPJoin.
	IXP int
	// RS reports whether an IXPJoin includes the route server.
	RS bool
	// Metros carries the touched metros: the withdrawn metro for
	// LinkDown, the materialization metros for LinkUp.
	Metros []int
	// New is the NewASArrival payload.
	New *NewAS
}

// EventBatch is one epoch's worth of evolution, replayable with Apply.
type EventBatch struct {
	// Epoch is the epoch the batch advances the world to (its pre-batch
	// epoch + 1).
	Epoch  uint32
	Events []Event
}

// TouchedLinks returns the distinct peering links (endpoints in low-high
// order, sorted) churned by this batch's link events — the input of
// link-scoped route-cache invalidation.
func (b *EventBatch) TouchedLinks() [][2]int {
	seen := map[[2]int]bool{}
	for _, ev := range b.Events {
		switch ev.Kind {
		case LinkDown, Depeer, LinkUp:
			a, bb := ev.A, ev.B
			if a > bb {
				a, bb = bb, a
			}
			seen[[2]int{a, bb}] = true
		}
	}
	out := make([][2]int, 0, len(seen))
	for l := range seen {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool {
		return out[i][0] < out[j][0] || (out[i][0] == out[j][0] && out[i][1] < out[j][1])
	})
	return out
}

// EvolveSpec sizes one evolution batch. Counts are targets, clamped to
// the available candidate pools.
type EvolveSpec struct {
	// LinkDowns withdraws that many peering links at one metro each.
	LinkDowns int
	// Depeerings removes that many peering pairs entirely.
	Depeerings int
	// LinkUps materializes that many new peerings among colocated
	// near-miss pairs (score just under the would-peer bar).
	LinkUps int
	// NewASes adds that many ordinary ASes.
	NewASes int
	// IXPJoins has that many (AS, IXP) memberships appear; route-server
	// joins induce multilateral LinkUp events.
	IXPJoins int
}

// wouldPeerBar mirrors the admission threshold in scanMetroPairs;
// upScoreWindow is how far under the bar a non-linked pair may score and
// still be a LinkUp candidate (the "near miss" pool churn draws from).
const (
	wouldPeerBar  = 3.8
	upScoreWindow = 1.0
)

// Evolve derives one churn batch from the current world and applies it,
// advancing w.Epoch. The returned batch replays the identical mutation
// on a replica world via Apply.
func (w *World) Evolve(rng *rand.Rand, spec EvolveSpec) (*EventBatch, error) {
	if spec.LinkDowns < 0 || spec.Depeerings < 0 || spec.LinkUps < 0 || spec.NewASes < 0 || spec.IXPJoins < 0 {
		return nil, fmt.Errorf("netsim: evolve: negative event count in %+v", spec)
	}
	batch := &EventBatch{Epoch: w.Epoch + 1}

	// Candidate enumeration (parallel, rng-free, pre-batch state only).
	downCands := w.downCandidates()
	upCands := w.upCandidates()

	// Sequential commit: the only rng consumer, in fixed order.
	nDown := spec.LinkDowns + spec.Depeerings
	picked := pickPairs(rng, downCands, nDown)
	for i, pr := range picked {
		if i < spec.LinkDowns {
			ms := w.LinkMetros[pr]
			m := ms[rng.Intn(len(ms))]
			batch.Events = append(batch.Events, Event{Kind: LinkDown, A: pr.A, B: pr.B, Metros: []int{m}})
		} else {
			batch.Events = append(batch.Events, Event{Kind: Depeer, A: pr.A, B: pr.B})
		}
	}
	for _, pr := range pickPairs(rng, upCands, spec.LinkUps) {
		shared := w.G.SharedMetros(pr.A, pr.B)
		var metros []int
		for _, m := range shared {
			if rng.Float64() < w.Cfg.LinkMaterializeProb {
				metros = append(metros, m)
			}
		}
		if len(metros) == 0 {
			metros = append(metros, shared[rng.Intn(len(shared))])
		}
		batch.Events = append(batch.Events, Event{Kind: LinkUp, A: pr.A, B: pr.B, Metros: metros})
	}
	w.commitNewASes(rng, spec.NewASes, batch)
	w.commitIXPJoins(rng, spec.IXPJoins, batch)

	if err := w.Apply(batch); err != nil {
		return nil, err
	}
	return batch, nil
}

// downCandidates returns every withdrawable peering pair in canonical
// order: all P2P links except the Tier1 backbone mesh.
func (w *World) downCandidates() []Pair {
	var out []Pair
	for pr, rel := range w.Rel {
		if rel != asgraph.P2P {
			continue
		}
		if w.G.ASes[pr.A].Class == asgraph.Tier1 && w.G.ASes[pr.B].Class == asgraph.Tier1 {
			continue
		}
		out = append(out, pr)
	}
	sortPairs(out)
	return out
}

// upCandidates enumerates non-linked colocated pairs whose peering score
// lands in the near-miss window under the would-peer bar — the pairs a
// bit of extra traffic would tip into peering. The scan mirrors
// buildPeering: per-metro fan-out through par.For, each pair claimed at
// its lowest shared metro, merged and sorted canonically.
func (w *World) upCandidates() []Pair {
	k := w.Cfg.LatentDim
	perMetro := make([][]Pair, len(w.G.Metros))
	par.For(len(perMetro), 0, func(_, m int) {
		perMetro[m] = w.scanUpPairs(m, k)
	})

	total := 0
	for _, pc := range perMetro {
		total += len(pc)
	}
	out := make([]Pair, 0, total)
	for _, pc := range perMetro {
		out = append(out, pc...)
	}
	sortPairs(out)
	return out
}

// scanUpPairs scores one metro's non-linked member pairs, claiming each
// pair at its lowest shared metro (footprint first-common-bit test).
func (w *World) scanUpPairs(m, k int) []Pair {
	g := w.G
	members := g.Metros[m].Members
	penalty := densityPenalty(len(members)) + globalPenalty(g.N())
	var out []Pair
	for ii := 0; ii < len(members); ii++ {
		a := members[ii]
		asA := &g.ASes[a]
		if asA.Class == asgraph.Tier1 {
			continue
		}
		fa := asA.Footprint()
		ra := w.Latent.Row(a)
		biasA := openBias(asA.Policy)
		for jj := ii + 1; jj < len(members); jj++ {
			b := members[jj]
			asB := &g.ASes[b]
			if asB.Class == asgraph.Tier1 {
				continue
			}
			if fa.FirstCommon(asB.Footprint()) != m {
				continue
			}
			// Any existing relationship (peering or transit) disqualifies.
			if _, linked := w.Rel[Pair{A: a, B: b}]; linked {
				continue
			}
			var dot float64
			rb := w.Latent.Row(b)
			for d := 0; d < k; d++ {
				dot += ra[d] * rb[d]
			}
			score := 0.55*dot + 0.55*(biasA+openBias(asB.Policy)) +
				0.6*complementarity(asA.Traffic, asB.Traffic) - penalty
			if asA.Country == asB.Country {
				score += 0.3
			}
			if score <= wouldPeerBar-upScoreWindow || score > wouldPeerBar {
				continue
			}
			out = append(out, Pair{A: a, B: b})
		}
	}
	return out
}

// commitNewASes draws spec'd new-AS arrivals into the batch: each
// newcomer gets a home metro, a class-decorated profile, transit from
// local upstreams (Tier1 fallback) and a latent vector adopted from a
// same-class donor — all resolved here so Apply needs no rng.
func (w *World) commitNewASes(rng *rand.Rand, n int, batch *EventBatch) {
	if n == 0 {
		return
	}
	g := w.G
	nextASN := 0
	byClass := make([][]int, asgraph.NumClasses)
	var tier1s []int
	for i := range g.ASes {
		if g.ASes[i].ASN >= nextASN {
			nextASN = g.ASes[i].ASN + 1
		}
		c := g.ASes[i].Class
		byClass[c] = append(byClass[c], i)
		if c == asgraph.Tier1 {
			tier1s = append(tier1s, i)
		}
	}
	for k := 0; k < n; k++ {
		home := rng.Intn(len(g.Metros))
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
			Country: g.Metros[home].Country,
			Metros:  []int{home},
		}
		nextASN++
		w.decorateOrdinary(a, rng)

		// Transit from colocated upstreams, ordered by index; a Tier1
		// backstops newcomers in upstream-free metros.
		var ups []int
		for _, u := range g.Metros[home].Members {
			if c := g.ASes[u].Class; c == asgraph.Transit || c == asgraph.LargeISP {
				ups = append(ups, u)
			}
		}
		var providers []int
		if len(ups) == 0 {
			providers = []int{tier1s[rng.Intn(len(tier1s))]}
		} else {
			np := 1 + rng.Intn(3)
			perm := rng.Perm(len(ups))
			for i := 0; i < np && i < len(perm); i++ {
				providers = append(providers, ups[perm[i]])
			}
			sort.Ints(providers)
		}

		// The newcomer adopts an existing playbook: a same-class donor's
		// latent vector plus fresh feature noise.
		donors := byClass[class]
		latent := make([]float64, w.Cfg.LatentDim)
		donor := w.Latent.Row(donors[rng.Intn(len(donors))])
		for d := range latent {
			latent[d] = donor[d] + w.Cfg.FeatureNoise*rng.NormFloat64()
		}

		batch.Events = append(batch.Events, Event{Kind: NewASArrival, New: &NewAS{
			ASN: a.ASN, Class: a.Class, Policy: a.Policy, Traffic: a.Traffic,
			Eyeballs: a.Eyeballs, AddrSpace: a.AddrSpace, Country: a.Country,
			ConsistentRouting: a.ConsistentRouting,
			Metros:            a.Metros, Providers: providers, Latent: latent,
			Responsive: rng.Float64() < 0.85,
		}})
	}
}

// commitIXPJoins draws spec'd IXP memberships, plus the multilateral
// LinkUp events a route-server join induces (each co-member linked at
// the IXP's metro with the same 0.95 draw generation uses).
func (w *World) commitIXPJoins(rng *rand.Rand, n int, batch *EventBatch) {
	g := w.G
	if n == 0 || len(g.IXPs) == 0 {
		return
	}
	var cands []int
	joined := map[[2]int]bool{} // joins already drawn this batch
	for k := 0; k < n; k++ {
		ix := g.IXPs[rng.Intn(len(g.IXPs))]
		cands = cands[:0]
		for _, ai := range g.Metros[ix.Metro].Members {
			a := &g.ASes[ai]
			if a.Class == asgraph.Tier1 || containsInt(a.IXPs, ix.Index) || joined[[2]int{ai, ix.Index}] {
				continue
			}
			cands = append(cands, ai)
		}
		if len(cands) == 0 {
			continue
		}
		ai := cands[rng.Intn(len(cands))]
		a := &g.ASes[ai]
		rsP := 0.7
		if a.Policy == asgraph.Selective {
			rsP = 0.35
		}
		if a.Policy == asgraph.Restrictive {
			rsP = 0.08
		}
		rs := ix.HasRouteServer && rng.Float64() < rsP
		joined[[2]int{ai, ix.Index}] = true
		batch.Events = append(batch.Events, Event{Kind: IXPJoin, A: ai, IXP: ix.Index, RS: rs})
		if !rs {
			continue
		}
		for _, b := range ix.Members {
			if b == ai || !g.ASes[b].OnRouteServer(ix.Index) {
				continue
			}
			// A co-member that is already the joiner's provider or
			// customer keeps the transit relationship; the route server
			// cannot turn it into a peering.
			if rel, ok := w.Rel[MakePair(ai, b)]; ok && rel != asgraph.P2P {
				continue
			}
			if containsInt(w.LinkMetros[MakePair(ai, b)], ix.Metro) {
				continue
			}
			if rng.Float64() < 0.95 {
				batch.Events = append(batch.Events, Event{Kind: LinkUp, A: ai, B: b, Metros: []int{ix.Metro}})
			}
		}
	}
}

// Apply replays an evolution batch on this world — typically a replica
// that did not run Evolve itself. It is rng-free and deterministic: the
// post-batch world is byte-identical to the one Evolve produced the
// batch on. The batch must advance the world's epoch by exactly one.
func (w *World) Apply(batch *EventBatch) error {
	if batch.Epoch != w.Epoch+1 {
		return fmt.Errorf("netsim: apply: batch epoch %d does not follow world epoch %d", batch.Epoch, w.Epoch)
	}
	rebuild := map[int]bool{} // metros whose Truth needs a membership rebuild
	for i := range batch.Events {
		if err := w.applyEvent(&batch.Events[i], rebuild); err != nil {
			return fmt.Errorf("netsim: apply event %d (%s): %w", i, batch.Events[i].Kind, err)
		}
	}
	if len(rebuild) > 0 {
		w.rebuildTruths(rebuild)
	}
	w.Epoch = batch.Epoch
	// Periodic re-pack: heavy churn must not forfeit the compact CSR
	// substrate (delta rows accumulate append slack until re-Compact).
	w.G.MaybeCompact(0)
	return nil
}

func (w *World) applyEvent(ev *Event, rebuild map[int]bool) error {
	g := w.G
	switch ev.Kind {
	case LinkDown:
		pr := MakePair(ev.A, ev.B)
		if w.Rel[pr] != asgraph.P2P || len(ev.Metros) != 1 {
			return fmt.Errorf("link %d-%d is not a peering", ev.A, ev.B)
		}
		m := ev.Metros[0]
		ms := w.LinkMetros[pr]
		i := sort.SearchInts(ms, m)
		if i >= len(ms) || ms[i] != m {
			return fmt.Errorf("link %d-%d has no interconnection at metro %d", ev.A, ev.B, m)
		}
		ms = append(ms[:i], ms[i+1:]...)
		w.setTruth(pr, m, false)
		if len(ms) == 0 {
			delete(w.LinkMetros, pr)
			delete(w.Rel, pr)
			g.RemovePeer(pr.A, pr.B)
		} else {
			w.LinkMetros[pr] = ms
		}
	case Depeer:
		pr := MakePair(ev.A, ev.B)
		if w.Rel[pr] != asgraph.P2P {
			return fmt.Errorf("pair %d-%d is not a peering", ev.A, ev.B)
		}
		for _, m := range w.LinkMetros[pr] {
			w.setTruth(pr, m, false)
		}
		delete(w.LinkMetros, pr)
		delete(w.Rel, pr)
		g.RemovePeer(pr.A, pr.B)
	case LinkUp:
		pr := MakePair(ev.A, ev.B)
		if rel, ok := w.Rel[pr]; ok && rel != asgraph.P2P {
			return fmt.Errorf("pair %d-%d has a transit relationship", ev.A, ev.B)
		} else if !ok {
			g.AddPeerUnique(pr.A, pr.B)
			w.Rel[pr] = asgraph.P2P
		}
		ms := w.LinkMetros[pr]
		for _, m := range ev.Metros {
			i := sort.SearchInts(ms, m)
			if i < len(ms) && ms[i] == m {
				continue
			}
			ms = append(ms, 0)
			copy(ms[i+1:], ms[i:])
			ms[i] = m
			w.setTruth(pr, m, true)
		}
		w.LinkMetros[pr] = ms
	case NewASArrival:
		na := ev.New
		a := &asgraph.AS{
			ASN: na.ASN, Class: na.Class, Policy: na.Policy, Traffic: na.Traffic,
			Eyeballs: na.Eyeballs, AddrSpace: na.AddrSpace, Country: na.Country,
			ConsistentRouting: na.ConsistentRouting,
			Metros:            append([]int(nil), na.Metros...),
		}
		idx := g.AddAS(a)
		for _, m := range na.Metros {
			mm := g.Metros[m]
			i := sort.SearchInts(mm.Members, idx)
			mm.Members = append(mm.Members, 0)
			copy(mm.Members[i+1:], mm.Members[i:])
			mm.Members[i] = idx
			rebuild[m] = true
			// The newcomer lands in an existing facility, round-robin by
			// index (deterministic; facility data is a coarse feature).
			if facs := w.Facilities[m]; len(facs) > 0 {
				f := idx % len(facs)
				facs[f] = append(facs[f], idx)
			}
		}
		for _, p := range na.Providers {
			pr := MakePair(idx, p)
			g.AddC2P(idx, p)
			w.Rel[pr] = asgraph.C2P
			w.CustomerIsA[pr] = pr.A == idx
			// Deterministic interconnect placement: every shared metro, or
			// the newcomer's home metro for a long-haul Tier1 fallback.
			shared := g.SharedMetros(idx, p)
			if len(shared) == 0 {
				shared = []int{na.Metros[0]}
			}
			w.LinkMetros[pr] = shared
		}
		grown := mat.New(w.Latent.Rows+1, w.Latent.Cols)
		copy(grown.Data, w.Latent.Data)
		copy(grown.Data[w.Latent.Rows*w.Latent.Cols:], na.Latent)
		w.Latent = grown
		w.Responsive = append(w.Responsive, na.Responsive)
	case IXPJoin:
		if ev.IXP < 0 || ev.IXP >= len(g.IXPs) {
			return fmt.Errorf("IXP %d out of range", ev.IXP)
		}
		ix := g.IXPs[ev.IXP]
		a := &g.ASes[ev.A]
		if containsInt(a.IXPs, ev.IXP) {
			return fmt.Errorf("AS %d is already a member of IXP %d", ev.A, ev.IXP)
		}
		ix.Members = append(ix.Members, ev.A)
		a.AddIXP(ev.IXP)
		if ev.RS {
			a.SetRouteServer(ev.IXP, true)
		}
	default:
		return fmt.Errorf("unknown event kind %d", ev.Kind)
	}
	return nil
}

// setTruth sets or clears one ground-truth link (symmetric) when both
// endpoints are members of the metro; a long-haul interconnect can name
// a metro where one side has no footprint.
func (w *World) setTruth(pr Pair, m int, link bool) {
	t := w.Truths[m]
	i, ok1 := t.Index[pr.A]
	j, ok2 := t.Index[pr.B]
	if !ok1 || !ok2 {
		return
	}
	if link {
		t.M.Set(i, j)
	} else {
		t.M.Unset(i, j)
	}
}

// rebuildTruths re-derives the ground-truth masks of the given metros
// from their members and the link-metro map: every metro at generation,
// the metros whose membership changed on Apply.
func (w *World) rebuildTruths(metros map[int]bool) {
	for m := range metros {
		members := w.G.Metros[m].Members
		t := &Truth{
			Metro:   m,
			Members: members,
			Index:   make(map[int]int, len(members)),
			M:       mat.NewMask(len(members)),
		}
		for r, ai := range members {
			t.Index[ai] = r
		}
		w.Truths[m] = t
	}
	for pr, ms := range w.LinkMetros {
		for _, m := range ms {
			if metros[m] {
				w.setTruth(pr, m, true)
			}
		}
	}
}

// pickPairs selects n distinct elements from the canonically-sorted
// candidate pool via partial Fisher-Yates, clamped to the pool size.
func pickPairs(rng *rand.Rand, cands []Pair, n int) []Pair {
	if n > len(cands) {
		n = len(cands)
	}
	for i := 0; i < n; i++ {
		j := i + rng.Intn(len(cands)-i)
		cands[i], cands[j] = cands[j], cands[i]
	}
	return cands[:n]
}

func sortPairs(ps []Pair) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].A != ps[j].A {
			return ps[i].A < ps[j].A
		}
		return ps[i].B < ps[j].B
	})
}

func containsInt(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}
