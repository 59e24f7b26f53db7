// Package asgraph defines the AS-level entities metAScritic reasons about:
// autonomous systems with the features the paper ingests (Appx. C/D.3),
// their business relationships (customer-to-provider and peer-to-peer),
// customer cones, and the geographic hierarchy of metros, countries and
// continents, including IXPs and their route servers.
//
// The graph is built for Internet scale (~100k ASes, ~500k links): ASes
// are stored by value in one flat slice, adjacency lists use int32
// indices and can be repacked into exactly-sized single backing arrays
// (Compact), and footprint / IXP / route-server membership are multi-word
// bitsets so colocation tests are O(metros/64) instead of linear scans.
package asgraph

import (
	"fmt"
	"slices"
	"sort"
	"sync"
)

// Class is the business classification of an AS (Appx. D.3).
type Class int

// AS business classes, ordered roughly from core to edge.
const (
	Tier1 Class = iota
	Hypergiant
	LargeISP
	Content
	Enterprise
	Transit
	Stub
	NumClasses
)

var classNames = [...]string{"Tier1", "Hypergiant", "LargeISP", "Content", "Enterprise", "Transit", "Stub"}

func (c Class) String() string {
	if c < 0 || int(c) >= len(classNames) {
		return fmt.Sprintf("Class(%d)", int(c))
	}
	return classNames[c]
}

// PeeringPolicy mirrors the PeeringDB policy field.
type PeeringPolicy int

// Peering policies.
const (
	Open PeeringPolicy = iota
	Selective
	Restrictive
	NumPolicies
)

var policyNames = [...]string{"Open", "Selective", "Restrictive"}

func (p PeeringPolicy) String() string {
	if p < 0 || int(p) >= len(policyNames) {
		return fmt.Sprintf("PeeringPolicy(%d)", int(p))
	}
	return policyNames[p]
}

// TrafficProfile mirrors the PeeringDB traffic-ratio field.
type TrafficProfile int

// Traffic profiles from heavy inbound (eyeball) to heavy outbound (content).
const (
	HeavyInbound TrafficProfile = iota
	MostlyInbound
	Balanced
	MostlyOutbound
	HeavyOutbound
	NumProfiles
)

var profileNames = [...]string{"HeavyInbound", "MostlyInbound", "Balanced", "MostlyOutbound", "HeavyOutbound"}

func (t TrafficProfile) String() string {
	if t < 0 || int(t) >= len(profileNames) {
		return fmt.Sprintf("TrafficProfile(%d)", int(t))
	}
	return profileNames[t]
}

// AS is one autonomous system with the publicly-observable features the
// recommender uses (Fig. 1, Appx. C). ASes are stored by value inside
// Graph.ASes; read them by index (or take &g.ASes[i] to mutate during
// construction).
type AS struct {
	Index   int // position in Graph.ASes
	ASN     int
	Class   Class
	Policy  PeeringPolicy
	Traffic TrafficProfile
	// Eyeballs is the estimated user population (APNIC-style).
	Eyeballs int
	// AddrSpace is the number of announced addresses (rough size proxy).
	AddrSpace int
	Country   int // index into Graph.Countries
	// Metros lists the metro indices where the AS has physical presence
	// (its iGDB-style footprint), sorted ascending.
	Metros []int
	// IXPs lists the IXP indices the AS is a member of.
	IXPs []int
	// ConsistentRouting reports whether the AS uses the same
	// interconnection type toward a given AS everywhere (§3.4). CDNs,
	// cloud providers and large transits are typically inconsistent.
	ConsistentRouting bool

	// foot mirrors Metros as a bitset; built by Graph.AddAS (and rebuilt
	// by Compact) so HasMetro and colocation tests are O(1)-ish.
	foot Bitset
	// ixf mirrors IXPs as a bitset (maintained by SetIXPs/Compact).
	ixf Bitset
	// rs marks, per IXP index, membership in that IXP's route server
	// (multilateral peering). Maintained via SetRouteServer.
	rs Bitset
}

// HasMetro reports whether the AS has presence in metro m. When the
// footprint bitset is available (every AS added through Graph.AddAS) this
// is a single word test; otherwise it falls back to scanning Metros.
func (a *AS) HasMetro(m int) bool {
	if a.foot != nil {
		return a.foot.Has(m)
	}
	for _, mm := range a.Metros {
		if mm == m {
			return true
		}
	}
	return false
}

// Footprint exposes the AS's metro bitset (nil until the AS is added to a
// graph). Callers must not mutate it.
func (a *AS) Footprint() Bitset { return a.foot }

// SetRouteServer records (or clears) the AS's membership in IXP ix's
// route server.
func (a *AS) SetRouteServer(ix int, on bool) {
	if on {
		a.rs.Set(ix)
	} else if a.rs.Has(ix) {
		a.rs[ix>>6] &^= 1 << uint(ix&63)
	}
}

// OnRouteServer reports whether the AS participates in IXP ix's route
// server.
func (a *AS) OnRouteServer(ix int) bool { return a.rs.Has(ix) }

// AddIXP appends IXP ix to the AS's membership list and bitset.
func (a *AS) AddIXP(ix int) {
	a.IXPs = append(a.IXPs, ix)
	a.ixf.Set(ix)
}

// Country is a country with its continent.
type Country struct {
	Code      string
	Continent int
}

// Metro is a metropolitan interconnection area.
type Metro struct {
	Index   int
	Name    string
	Country int // index into Graph.Countries
	IXPs    []int
	// Members caches the indices of ASes present in the metro, sorted.
	Members []int
}

// IXP is an Internet exchange point located in one metro.
type IXP struct {
	Index   int
	Name    string
	Metro   int
	Members []int // AS indices
	// HasRouteServer reports whether the IXP operates a route server.
	HasRouteServer bool
}

// Rel is a business relationship type on an AS-level link.
type Rel int8

// Relationship kinds.
const (
	C2P Rel = iota // first AS is a customer of the second
	P2P            // settlement-free peering
)

// Graph holds the AS-level structure: ASes, geography, the transit (c2p)
// hierarchy and AS-level peering adjacency. Per-metro peering ground truth
// lives in netsim (it is matrix-shaped); the Graph's Peers adjacency is the
// union over metros, which is what BGP propagation operates on.
//
// Adjacency lists preserve insertion order (routing tie-breaks observe
// it). After construction, Compact repacks every adjacency list, Metros
// and IXPs slice into exactly-sized single backing arrays, dropping the
// append slack of incremental construction.
type Graph struct {
	ASes       []AS
	Countries  []Country
	Continents []string
	Metros     []*Metro
	IXPs       []*IXP

	// Providers[i] lists the provider AS indices of AS i; Customers is the
	// reverse adjacency. Peers[i] lists AS-level peers of i.
	Providers [][]int32
	Customers [][]int32
	Peers     [][]int32

	// mutations counts structural edits since the last Compact; see
	// mutate.go (MaybeCompact re-packs once it crosses a threshold).
	mutations int

	conesMu   sync.Mutex
	cones     [][]int32 // lazily computed customer cones, guarded by conesMu
	coneSeen  []int32   // epoch-stamped visited marks for cone BFS
	coneEpoch int32
	coneStack []int32
	coneVisit []int32
}

// NewGraph returns an empty graph ready for ASes to be added.
func NewGraph() *Graph {
	return &Graph{}
}

// AddAS copies a into the graph, assigning its Index (also written back
// through a so callers can read it), builds its footprint bitset from
// Metros, and grows the adjacency slices. It returns the new index.
func (g *Graph) AddAS(a *AS) int {
	a.Index = len(g.ASes)
	if a.foot == nil {
		a.foot = Bitset{}
		for _, m := range a.Metros {
			a.foot.Set(m)
		}
	}
	if a.ixf == nil && len(a.IXPs) > 0 {
		for _, x := range a.IXPs {
			a.ixf.Set(x)
		}
	}
	g.ASes = append(g.ASes, *a)
	g.Providers = append(g.Providers, nil)
	g.Customers = append(g.Customers, nil)
	g.Peers = append(g.Peers, nil)
	g.mutations++
	g.invalidateCones()
	return a.Index
}

// AddC2P records that customer buys transit from provider.
func (g *Graph) AddC2P(customer, provider int) {
	if customer == provider {
		panic("asgraph: self transit link")
	}
	if hasInt32(g.Providers[customer], int32(provider)) {
		return
	}
	g.Providers[customer] = append(g.Providers[customer], int32(provider))
	g.Customers[provider] = append(g.Customers[provider], int32(customer))
	g.mutations++
	g.invalidateCones()
}

func (g *Graph) invalidateCones() {
	g.conesMu.Lock()
	g.cones = nil
	g.conesMu.Unlock()
}

// AddPeer records an AS-level peering between a and b (idempotent).
func (g *Graph) AddPeer(a, b int) {
	if g.HasPeer(a, b) {
		return
	}
	g.AddPeerUnique(a, b)
}

// AddPeerUnique records a peering the caller guarantees is not already
// present, skipping AddPeer's linear duplicate scan. Bulk construction
// (netsim's peering build) uses this: with hypergiant peer degrees in the
// tens of thousands, the dedup scan alone would be quadratic.
func (g *Graph) AddPeerUnique(a, b int) {
	if a == b {
		panic("asgraph: self peering")
	}
	g.Peers[a] = append(g.Peers[a], int32(b))
	g.Peers[b] = append(g.Peers[b], int32(a))
	g.mutations++
}

// HasPeer reports whether a and b peer at the AS level.
func (g *Graph) HasPeer(a, b int) bool { return hasInt32(g.Peers[a], int32(b)) }

// HasProvider reports whether p is a provider of c.
func (g *Graph) HasProvider(c, p int) bool { return hasInt32(g.Providers[c], int32(p)) }

// N returns the number of ASes.
func (g *Graph) N() int { return len(g.ASes) }

// Compact repacks the graph into its read-optimized form: every adjacency
// list, each AS's Metros and IXPs slice, and the three membership bitsets
// are re-laid-out over exactly-sized shared backing arrays (CSR-style:
// one allocation per relation instead of one per AS, no append slack).
// Call it once construction is done; later Add* calls still work (they
// reallocate the touched AS's list out of the shared backing).
func (g *Graph) Compact() {
	g.mutations = 0
	g.Providers = repackAdj(g.Providers)
	g.Customers = repackAdj(g.Customers)
	g.Peers = repackAdj(g.Peers)

	// Metros and IXPs: one []int backing each.
	totM, totX := 0, 0
	for i := range g.ASes {
		totM += len(g.ASes[i].Metros)
		totX += len(g.ASes[i].IXPs)
	}
	backM := make([]int, 0, totM)
	backX := make([]int, 0, totX)
	for i := range g.ASes {
		a := &g.ASes[i]
		off := len(backM)
		backM = append(backM, a.Metros...)
		a.Metros = backM[off:len(backM):len(backM)]
		off = len(backX)
		backX = append(backX, a.IXPs...)
		a.IXPs = backX[off:len(backX):len(backX)]
	}

	// Bitsets: uniform stride over one backing per kind.
	mw := BitsetWords(len(g.Metros))
	xw := BitsetWords(len(g.IXPs))
	footBack := make([]uint64, len(g.ASes)*mw)
	ixfBack := make([]uint64, len(g.ASes)*xw)
	rsBack := make([]uint64, len(g.ASes)*xw)
	for i := range g.ASes {
		a := &g.ASes[i]
		foot := Bitset(footBack[i*mw : (i+1)*mw : (i+1)*mw])
		for _, m := range a.Metros {
			foot.Set(m)
		}
		a.foot = foot
		ixf := Bitset(ixfBack[i*xw : (i+1)*xw : (i+1)*xw])
		rs := Bitset(rsBack[i*xw : (i+1)*xw : (i+1)*xw])
		for _, x := range a.IXPs {
			ixf.Set(x)
		}
		// Copy existing route-server bits (rs may be shorter than xw).
		copy(rs, a.rs)
		a.ixf = ixf
		a.rs = rs
	}
}

// repackAdj copies per-AS adjacency lists into one exactly-sized backing
// array, preserving order. Slices are capacity-clamped so a later append
// reallocates instead of bleeding into a neighbor's list.
func repackAdj(adj [][]int32) [][]int32 {
	tot := 0
	for _, l := range adj {
		tot += len(l)
	}
	back := make([]int32, 0, tot)
	out := make([][]int32, len(adj))
	for i, l := range adj {
		off := len(back)
		back = append(back, l...)
		out[i] = back[off:len(back):len(back)]
	}
	return out
}

// CustomerCone returns the customer cone of AS i: the set of AS indices
// reachable by repeatedly following provider→customer links, including i
// itself. The result is sorted, exactly sized and cached; the cache is
// guarded so concurrent metro runs can share one graph (callers must not
// mutate the returned slice).
func (g *Graph) CustomerCone(i int) []int32 {
	g.conesMu.Lock()
	defer g.conesMu.Unlock()
	if g.cones == nil {
		g.cones = make([][]int32, g.N())
	}
	if g.cones[i] != nil {
		return g.cones[i]
	}
	if len(g.coneSeen) < g.N() {
		g.coneSeen = make([]int32, g.N())
		g.coneEpoch = 0
	}
	g.coneEpoch++
	epoch := g.coneEpoch
	seen := g.coneSeen
	stack := g.coneStack[:0]
	stack = append(stack, int32(i))
	seen[i] = epoch
	visited := g.coneVisit[:0]
	visited = append(visited, int32(i))
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, c := range g.Customers[x] {
			if seen[c] != epoch {
				seen[c] = epoch
				visited = append(visited, c)
				stack = append(stack, c)
			}
		}
	}
	g.coneStack = stack[:0]
	cone := make([]int32, len(visited))
	copy(cone, visited)
	g.coneVisit = visited[:0]
	slices.Sort(cone)
	g.cones[i] = cone
	return cone
}

// ConeSize returns len(CustomerCone(i)).
func (g *Graph) ConeSize(i int) int { return len(g.CustomerCone(i)) }

// InCone reports whether x is in the customer cone of i.
func (g *Graph) InCone(x, i int) bool {
	cone := g.CustomerCone(i)
	k := sort.Search(len(cone), func(j int) bool { return cone[j] >= int32(x) })
	return k < len(cone) && cone[k] == int32(x)
}

// GeoScope categorizes how geographically close something is to a metro:
// same metro, same country, same continent, or elsewhere. It is the
// four-way split used both for measurement strategies (§3.3.2) and for the
// transferability weights (§3.4).
type GeoScope uint8

// Geographic scopes from closest to farthest.
const (
	SameMetro GeoScope = iota
	SameCountry
	SameContinent
	Elsewhere
	NumGeoScopes
)

var scopeNames = [...]string{"SameMetro", "SameCountry", "SameContinent", "Elsewhere"}

func (s GeoScope) String() string {
	if int(s) >= len(scopeNames) {
		return fmt.Sprintf("GeoScope(%d)", int(s))
	}
	return scopeNames[s]
}

// ScopeOfMetros returns the geographic scope of metro b relative to metro a.
func (g *Graph) ScopeOfMetros(a, b int) GeoScope {
	if a == b {
		return SameMetro
	}
	ma, mb := g.Metros[a], g.Metros[b]
	if ma.Country == mb.Country {
		return SameCountry
	}
	if g.Countries[ma.Country].Continent == g.Countries[mb.Country].Continent {
		return SameContinent
	}
	return Elsewhere
}

// MetroOfName returns the metro with the given name, or nil.
func (g *Graph) MetroOfName(name string) *Metro {
	for _, m := range g.Metros {
		if m.Name == name {
			return m
		}
	}
	return nil
}

// SharedMetros returns the sorted metro indices where both ASes have
// presence. With footprint bitsets (ASes added via AddAS) this is a word
// AND; otherwise it falls back to a merge over the Metros slices.
func (g *Graph) SharedMetros(a, b int) []int {
	fa, fb := g.ASes[a].foot, g.ASes[b].foot
	if fa != nil && fb != nil {
		return fa.AppendCommon(fb, nil)
	}
	return sharedSorted(g.ASes[a].Metros, g.ASes[b].Metros)
}

// SharedIXPs returns the sorted IXP indices both ASes are members of.
func (g *Graph) SharedIXPs(a, b int) []int {
	xa, xb := g.ASes[a].ixf, g.ASes[b].ixf
	if xa != nil && xb != nil {
		return xa.AppendCommon(xb, nil)
	}
	return sharedSorted(g.ASes[a].IXPs, g.ASes[b].IXPs)
}

// sharedSorted returns the sorted intersection of two small index slices
// (not assumed sorted — hand-built test graphs may append out of order).
func sharedSorted(xs, ys []int) []int {
	set := map[int]bool{}
	for _, x := range xs {
		set[x] = true
	}
	var out []int
	for _, y := range ys {
		if set[y] {
			out = append(out, y)
		}
	}
	sort.Ints(out)
	return out
}

// Pair is a canonical (A < B) AS-index pair, used as a map key for links.
type Pair struct{ A, B int }

// MakePair canonicalizes an AS pair.
func MakePair(a, b int) Pair {
	if a > b {
		a, b = b, a
	}
	return Pair{a, b}
}

func hasInt32(xs []int32, v int32) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}
