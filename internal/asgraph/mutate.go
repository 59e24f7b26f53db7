package asgraph

// Mutation support for live topologies. The graph is built once and
// Compact()ed into its CSR form, but a streaming world keeps editing it:
// link churn, depeering, new-AS arrival, IXP joins. Edits work as a
// delta overlay on the packed substrate — removals shrink a row in place
// inside its own backing segment (rows are capacity-clamped, so the
// shift never bleeds into a neighbor), additions reallocate just the
// touched row out of the shared backing — and every edit bumps a
// mutation counter. Once the overlay outgrows a threshold, MaybeCompact
// re-packs the whole graph, restoring the exactly-sized single-backing
// layout PR 8 bought, so long-running mutation never degenerates into
// the pre-Compact allocation pattern.

// DefaultCompactThreshold is the mutation count at which MaybeCompact
// re-packs: high enough that a typical churn batch (tens to hundreds of
// events) never triggers a re-pack, low enough that overlay slack stays
// a small fraction of the packed size at Internet scale.
const DefaultCompactThreshold = 4096

// Mutations returns the number of structural edits (AS/link additions
// and removals) since the last Compact.
func (g *Graph) Mutations() int { return g.mutations }

// MaybeCompact re-packs the graph when at least threshold mutations have
// accumulated since the last Compact; threshold <= 0 means
// DefaultCompactThreshold. It reports whether it compacted.
func (g *Graph) MaybeCompact(threshold int) bool {
	if threshold <= 0 {
		threshold = DefaultCompactThreshold
	}
	if g.mutations < threshold {
		return false
	}
	g.Compact()
	return true
}

// RemovePeer deletes the AS-level peering between a and b, preserving
// the insertion order of the remaining adjacency entries (routing
// tie-breaks observe list order). It reports whether a link was removed.
func (g *Graph) RemovePeer(a, b int) bool {
	la, oka := removeInt32(g.Peers[a], int32(b))
	lb, okb := removeInt32(g.Peers[b], int32(a))
	if !oka || !okb {
		return oka || okb // tolerate (and repair) a half-present link
	}
	g.Peers[a], g.Peers[b] = la, lb
	g.mutations++
	return true
}

// removeInt32 deletes the first occurrence of v from xs in place,
// preserving the order of the remaining elements, and reports whether v
// was present.
func removeInt32(xs []int32, v int32) ([]int32, bool) {
	for i, x := range xs {
		if x == v {
			copy(xs[i:], xs[i+1:])
			return xs[:len(xs)-1], true
		}
	}
	return xs, false
}
