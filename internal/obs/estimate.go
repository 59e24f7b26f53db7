package obs

// Estimate assembly and delta maintenance. EstimateScoped builds E_m from
// scratch; Store.Refresh brings a previously built Estimate up to date by
// re-deriving only the pairs appended to the dirty log since the
// estimate's watermark. Both paths go through the same per-pair evidence
// derivation (applyPair), and per-pair re-derivation is idempotent and
// order-independent, so a refreshed estimate is byte-identical to a
// from-scratch rebuild — pinned by the equivalence property/fuzz tests.

import (
	"metascritic/internal/asgraph"
	"metascritic/internal/mat"
)

// NegativePolicy selects which conditions gate non-link evidence; the E.7
// ablation compares these.
type NegativePolicy int

// Non-link inference policies.
const (
	// NegFull uses every transit observation (no conditions).
	NegFull NegativePolicy = iota
	// NegWellPositioned requires a well-positioned probe but ignores
	// routing consistency.
	NegWellPositioned
	// NegMetascritic requires both a well-positioned probe and routing
	// consistency at the evidence scope (the paper's method).
	NegMetascritic
	// NegNone never infers non-existence from measurements.
	NegNone
)

// Estimate is the estimated connectivity matrix E_m for one metro.
//
// An Estimate built by Estimate/EstimateScoped stays attached to its
// source Store: Store.Refresh updates it in place from the evidence
// ingested since it was built (or last refreshed). The E and Mask
// pointers are stable across Refresh, so consumers holding them (the
// rank loop) see updates without rewiring.
type Estimate struct {
	Metro   int
	Members []int
	Index   map[int]int
	// E holds evidence values in [-1, 1], stored on Mask's entries only
	// (it reads 0 off them): Set, clear and rebuilds write E and Mask
	// together, so E's support is always exactly Mask.
	E    *mat.Sparse
	Mask *mat.Mask

	// Delta-maintenance bookkeeping: the store and parameters this
	// estimate was derived from, and the log watermarks it has consumed.
	src      *storeIdent
	policy   NegativePolicy
	maxScope asgraph.GeoScope
	dirtyPos int // s.dirty[:dirtyPos] is folded in
	confPos  int // s.conflicts[:confPos] is folded in
}

// Value returns the evidence value for graph-level ASes a and b, and
// whether it is observed. E's support is the mask, so one row search
// answers both.
func (e *Estimate) Value(a, b int) (float64, bool) {
	i, ok1 := e.Index[a]
	j, ok2 := e.Index[b]
	if !ok1 || !ok2 {
		return 0, false
	}
	return e.E.Lookup(i, j)
}

// covers reports whether both ASes of pr are members.
func (e *Estimate) covers(pr asgraph.Pair) bool {
	_, okA := e.Index[pr.A]
	_, okB := e.Index[pr.B]
	return okA && okB
}

// Set records an evidence value (keeping E symmetric).
func (e *Estimate) Set(i, j int, v float64) {
	e.E.Set(i, j, v)
	e.E.Set(j, i, v)
	e.Mask.Set(i, j)
}

// clear removes a pair's entry (keeping E symmetric).
func (e *Estimate) clear(i, j int) {
	e.E.Unset(i, j)
	e.E.Unset(j, i)
	e.Mask.Unset(i, j)
}

// RowFill returns the number of observed entries for each member row.
func (e *Estimate) RowFill() []int {
	return e.AppendRowFill(nil)
}

// AppendRowFill is RowFill with caller-provided storage: it overwrites
// buf (growing it as needed) with the per-row counts and returns it, so
// per-batch callers reuse one buffer.
func (e *Estimate) AppendRowFill(buf []int) []int {
	buf = buf[:0]
	for i := range e.Members {
		buf = append(buf, e.Mask.RowCount(i))
	}
	return buf
}

// PairCounts returns, per member AS, the number of positive and negative
// observed entries in an estimate — the dominant Shapley features (# of
// existing / non-existing links, Fig. 13).
func (e *Estimate) PairCounts() (posCount, negCount []int) {
	n := len(e.Members)
	posCount = make([]int, n)
	negCount = make([]int, n)
	for i := 0; i < n; i++ {
		for _, j := range e.Mask.RowView(i) {
			if e.E.At(i, int(j)) > 0 {
				posCount[i]++
			} else {
				negCount[i]++
			}
		}
	}
	return posCount, negCount
}

// Estimate assembles E_m for the target metro over the given member ASes,
// applying transferability weights and the configured non-link policy.
func (s *Store) Estimate(metro int, members []int, policy NegativePolicy) *Estimate {
	return s.EstimateScoped(metro, members, policy, asgraph.Elsewhere)
}

// EstimateScoped is Estimate restricted to observations within maxScope of
// the target metro: SameMetro disables geographic transferability entirely
// (the Appx. E.4 ablation), Elsewhere enables the full ±1/±0.7/±0.4/±0.1
// weighting.
func (s *Store) EstimateScoped(metro int, members []int, policy NegativePolicy, maxScope asgraph.GeoScope) *Estimate {
	est := &Estimate{
		Metro:    metro,
		Members:  members,
		Index:    make(map[int]int, len(members)),
		E:        mat.NewSparse(len(members)),
		Mask:     mat.NewMask(len(members)),
		src:      s.ident,
		policy:   policy,
		maxScope: maxScope,
	}
	for i, as := range members {
		est.Index[as] = i
	}
	s.rebuildInto(est)
	return est
}

// rebuildInto re-derives every pair of the estimate from the store's full
// evidence, in place (E and Mask objects are reused), and stamps the
// current log watermarks.
func (s *Store) rebuildInto(est *Estimate) {
	est.E.Reset()
	est.Mask.Reset()
	for pr := range s.direct {
		s.applyPair(est, pr)
	}
	for pr := range s.transit {
		if len(s.direct[pr]) > 0 {
			continue // already derived above
		}
		s.applyPair(est, pr)
	}
	est.dirtyPos = len(s.dirty)
	est.confPos = len(s.conflicts)
}

// Refresh brings an estimate up to date with the store's current evidence,
// in place, and returns it. Only the pairs logged dirty since the
// estimate's watermark are re-derived; a NegMetascritic estimate falls
// back to a full in-place rebuild when a routing contradiction within its
// scope was logged (consistency-set changes can flip evidence of pairs no
// trace touched). An estimate built from a different store (for example
// before a Clone on the other side of the split) is rebuilt from scratch.
//
// Refresh(nil) returns nil, so `est = store.Refresh(est)` is a safe
// first-round idiom.
func (s *Store) Refresh(est *Estimate) *Estimate {
	if est == nil {
		return nil
	}
	if est.src != s.ident {
		return s.EstimateScoped(est.Metro, est.Members, est.policy, est.maxScope)
	}
	if est.policy == NegMetascritic {
		for _, sc := range s.conflicts[est.confPos:] {
			if sc <= est.maxScope {
				s.rebuildInto(est)
				return est
			}
		}
	}
	est.confPos = len(s.conflicts)
	if est.dirtyPos == len(s.dirty) {
		return est
	}
	var seen map[asgraph.Pair]bool
	for _, pr := range s.dirty[est.dirtyPos:] {
		if !est.covers(pr) || seen[pr] {
			continue
		}
		if seen == nil {
			seen = map[asgraph.Pair]bool{}
		}
		seen[pr] = true
		s.applyPair(est, pr)
	}
	est.dirtyPos = len(s.dirty)
	return est
}

// applyPair re-derives one pair's merged evidence value from the store's
// current records and writes it into the estimate, clearing the entry if
// no evidence survives the scope/policy gates. Idempotent: the result
// depends only on the store state, not on prior estimate content.
func (s *Store) applyPair(est *Estimate, pr asgraph.Pair) {
	i, okA := est.Index[pr.A]
	j, okB := est.Index[pr.B]
	if !okA || !okB {
		return
	}
	pos := s.posEvidence(pr, est.Metro, est.maxScope)
	neg := s.negEvidence(pr, est.Metro, est.policy, est.maxScope)
	// Merge: keep the larger magnitude; positive wins ties.
	v := pos
	if neg < 0 && (pos == 0 || -neg > pos) {
		v = neg
	}
	if v == 0 {
		est.clear(i, j)
		return
	}
	est.Set(i, j, v)
}

// posEvidence is the strongest transferability weight among the pair's
// direct crossings within maxScope of the target metro (0 if none).
// Crossings last observed more than staleWindow epochs ago may be from
// links that no longer exist, so their weight is demoted (epoch.go).
func (s *Store) posEvidence(pr asgraph.Pair, metro int, maxScope asgraph.GeoScope) float64 {
	best := 0.0
	stamps := s.directEpoch[pr]
	for i, m := range s.direct[pr] {
		sc := s.g.ScopeOfMetros(int(m), metro)
		if sc > maxScope {
			continue
		}
		w := TransferWeight(sc)
		if s.stale(stamps[i]) {
			w *= staleDemotion
		}
		if w > best {
			best = w
		}
	}
	return best
}

// negEvidence is the strongest (most negative) non-link evidence among the
// pair's transit observations that pass the policy's gates (0 if none).
func (s *Store) negEvidence(pr asgraph.Pair, metro int, policy NegativePolicy, maxScope asgraph.GeoScope) float64 {
	if policy == NegNone {
		return 0
	}
	best := 0.0 // strongest magnitude
	for _, to := range s.transit[pr] {
		sc := s.g.ScopeOfMetros(int(to.metro), metro)
		if sc > maxScope {
			continue
		}
		w := TransferWeight(sc)
		if s.stale(to.epoch) {
			w *= staleDemotion // pre-churn detour: demoted like stale links
		}
		if w <= best {
			continue
		}
		// The probe must be well-positioned for the near-side AS at the
		// metro where the transit crossing was observed (§3.4): that is
		// what licenses reading the detour as evidence of a missing
		// direct link there. NegFull skips the gate (E.7 ablation).
		if policy == NegWellPositioned || policy == NegMetascritic {
			if !s.wellPositioned(to.probe, to.near, to.metro) {
				continue
			}
		}
		if policy == NegMetascritic {
			c := s.ConsistentASes(sc)
			if !c[pr.A] || !c[pr.B] {
				continue
			}
		}
		best = w
	}
	return -best
}
