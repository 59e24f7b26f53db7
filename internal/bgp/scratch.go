package bgp

import "sync"

// propScratch is the reusable workspace of one propagation run: every
// per-AS working array (distances, flags, next hops for the three route
// classes), the BFS queue and the Dial bucket queue of the provider-route
// Dijkstra. A warm scratch makes repeated propagations allocation-free —
// the property the pooled path pins with a 0 allocs/op test.
//
// Reset strategy, chosen by profiling: the four distance arrays are
// refilled with `unreached` at the start of every run (branch-free
// sequential writes — an epoch-stamp guard on these was measured ~30%
// slower because every hot read had to touch a stamp array and a value
// array); the flag/hop arrays are never reset, they are initialized on
// first discovery exactly like the seed implementation's fresh
// allocations were; the queue and buckets are drained in place.
type propScratch struct {
	n int

	// Customer routes (phase 1).
	custDist  []int32
	custHop   []int32
	custFlags []uint8

	// Peer routes (phase 2).
	peerDist  []int32
	peerHop   []int32
	peerFlags []uint8

	// Provider routes (phase 3).
	provDist  []int32
	provHop   []int32
	provFlags []uint8

	// expLen[q] is the AS-path length q exports to its customers
	// (customer dist, else peer dist, else provider dist) — the seed
	// implementation's exportLen closure, materialized so the Dijkstra
	// loop and the flag pass read an array instead of calling a closure.
	expLen []int32

	queue   []int32   // phase-1 BFS queue
	buckets [][]int32 // Dial bucket queue of the provider-route Dijkstra

	origin1 [1]Origin // single-origin scratch for the cache path
}

// scratchPool recycles propagation workspaces across Propagate calls and
// route-cache misses.
var scratchPool = sync.Pool{New: func() any { return new(propScratch) }}

func getScratch(n int) *propScratch {
	s := scratchPool.Get().(*propScratch)
	s.ensure(n)
	return s
}

func putScratch(s *propScratch) { scratchPool.Put(s) }

// ensure sizes the scratch for an n-AS topology.
func (s *propScratch) ensure(n int) {
	if s.n < n {
		s.custDist = make([]int32, n)
		s.custHop = make([]int32, n)
		s.custFlags = make([]uint8, n)
		s.peerDist = make([]int32, n)
		s.peerHop = make([]int32, n)
		s.peerFlags = make([]uint8, n)
		s.provDist = make([]int32, n)
		s.provHop = make([]int32, n)
		s.provFlags = make([]uint8, n)
		s.expLen = make([]int32, n)
	}
	s.n = n
}

// reset prepares the scratch for a new run over the first n ASes.
func (s *propScratch) reset(n int) {
	fillUnreached(s.custDist[:n])
	fillUnreached(s.peerDist[:n])
	fillUnreached(s.provDist[:n])
	fillUnreached(s.expLen[:n])
}

func fillUnreached(dst []int32) {
	for i := range dst {
		dst[i] = unreached
	}
}

// bucketAt grows the bucket array on demand and returns bucket d.
func (s *propScratch) bucketAt(d int32) *[]int32 {
	for int(d) >= len(s.buckets) {
		s.buckets = append(s.buckets, nil)
	}
	return &s.buckets[d]
}

// run executes the three Gao-Rexford propagation phases over t, leaving
// the selected state in the scratch arrays for one of the emitters below.
// The algorithm is the seed Propagate implementation with the per-call
// allocations replaced by the pooled workspace, the Dijkstra binary heap
// replaced by a Dial bucket queue (relaxations are +1, so processing
// buckets in increasing distance settles nodes in the same order class),
// and the exportLen closure materialized as an array. Results are
// byte-identical; the equivalence property test pins this against a copy
// of the seed code.
func (s *propScratch) run(t *Topology, origins []Origin) {
	n := int32(t.n)
	s.reset(t.n)
	custDist, custHop, custFlags := s.custDist, s.custHop, s.custFlags
	peerDist, peerHop, peerFlags := s.peerDist, s.peerHop, s.peerFlags
	provDist, provHop, provFlags := s.provDist, s.provHop, s.provFlags
	expLen := s.expLen

	// Phase 1: customer routes — BFS from the origins over customer →
	// provider edges. Distances first; flags and hops are initialized at
	// discovery (the seed implementation's freshly zeroed allocations).
	queue := s.queue[:0]
	for _, o := range origins {
		a := int32(o.AS)
		if custDist[a] != 0 {
			custDist[a] = 0
			custFlags[a] = 0
			custHop[a] = -1
			queue = append(queue, a)
		}
		custFlags[a] |= o.Flag
	}
	for head := 0; head < len(queue); head++ {
		x := queue[head]
		dx := custDist[x] + 1
		for _, p := range t.providers[x] {
			if custDist[p] == unreached {
				custDist[p] = dx
				custFlags[p] = 0
				custHop[p] = -1
				queue = append(queue, p)
			}
		}
	}
	s.queue = queue
	// Flags and next hops in increasing-distance order (queue is ordered
	// by BFS level).
	for _, x := range queue {
		dx := custDist[x]
		if dx == 0 {
			continue
		}
		best := int32(-1)
		for _, c := range t.customers[x] {
			if custDist[c] == dx-1 {
				custFlags[x] |= custFlags[c]
				if best == -1 || c < best {
					best = c
				}
			}
		}
		custHop[x] = best
	}

	// Phase 2: peer routes — one peer hop onto a customer route (or the
	// origin itself). Push-based: only the reached ASes (exactly the BFS
	// queue) export over peer edges, so unreached peer lists are never
	// scanned. The result is order-independent — distance is a min, the
	// tie flags are a commutative OR, the tie hop is a min — so visiting
	// edges from the exporter side leaves every selection identical to the
	// seed's per-importer scan.
	for _, b := range queue {
		d := custDist[b] + 1
		f := custFlags[b]
		for _, a := range t.peers[b] {
			switch {
			case d < peerDist[a]:
				peerDist[a] = d
				peerFlags[a] = f
				peerHop[a] = b
			case d == peerDist[a]:
				peerFlags[a] |= f
				if b < peerHop[a] {
					peerHop[a] = b
				}
			}
		}
	}

	// Phase 3: provider routes — Dijkstra over provider → customer edges.
	// An AS with a customer or peer route exports that selection to its
	// customers; ASes without either depend on their providers' provider
	// routes. All edge relaxations are +1, so a Dial bucket queue
	// processed in increasing distance replaces the binary heap, and every
	// node enters the queue exactly once with its final distance:
	// candidates from later-settled exporters are never smaller, so the
	// first relaxation of a node is also its best, and no stale-entry or
	// settled bookkeeping is needed.
	//
	// Flags and next hops are pushed forward during relaxation instead of
	// recovered by a separate distance-ordered pass over provider edges:
	// when q drains from bucket d, every contributor to q's own provider
	// flags (a parent with export length d-1) drained from an earlier
	// bucket, so q's selected flags are final here. A strictly-better
	// relaxation seeds the child's flags/hop, an equal-distance one merges
	// (flags OR in, the hop takes the minimum exporter) — the same set of
	// contributing parents, flag unions and hop tie-breaks the seed
	// implementation's flag pass computed, without traversing the
	// non-contributing provider edges it had to scan past.
	maxB := int32(-1)
	for q := int32(0); q < n; q++ {
		el := custDist[q]
		if el == unreached {
			el = peerDist[q]
		}
		if el == unreached {
			continue
		}
		expLen[q] = el
		b := s.bucketAt(el)
		*b = append(*b, q)
		if el > maxB {
			maxB = el
		}
	}
	for d := int32(0); d <= maxB; d++ {
		bq := s.buckets[d]
		cand := d + 1
		for k := 0; k < len(bq); k++ {
			q := bq[k]
			// q's selected flags, in preference order (customer > peer >
			// provider) — final at drain time, see above.
			var qf uint8
			switch {
			case custDist[q] != unreached:
				qf = custFlags[q]
			case peerDist[q] != unreached:
				qf = peerFlags[q]
			default:
				qf = provFlags[q]
			}
			for _, c := range t.customers[q] {
				switch pd := provDist[c]; {
				case pd == unreached:
					provDist[c] = cand
					provFlags[c] = qf
					provHop[c] = q
					// expLen still unset means c has neither a customer
					// nor a peer route, so it depends on this provider
					// route and joins the queue.
					if expLen[c] == unreached {
						expLen[c] = cand
						nb := s.bucketAt(cand)
						*nb = append(*nb, c)
						if cand > maxB {
							maxB = cand
						}
					}
				case pd == cand:
					provFlags[c] |= qf
					if q < provHop[c] {
						provHop[c] = q
					}
				}
			}
		}
		s.buckets[d] = bq[:0] // bucket fully drained; reset for the next run
	}
}

// emitRoutes writes the per-AS route selection into dst (the seed
// Propagate's output format).
func (s *propScratch) emitRoutes(dst []Route) {
	for a := range dst {
		switch {
		case s.custDist[a] == 0:
			dst[a] = Route{Class: ClassOwn, Len: 0, NextHop: -1, Flags: s.custFlags[a]}
		case s.custDist[a] != unreached:
			dst[a] = Route{Class: ClassCustomer, Len: s.custDist[a], NextHop: s.custHop[a], Flags: s.custFlags[a]}
		case s.peerDist[a] != unreached:
			dst[a] = Route{Class: ClassPeer, Len: s.peerDist[a], NextHop: s.peerHop[a], Flags: s.peerFlags[a]}
		case s.provDist[a] != unreached:
			dst[a] = Route{Class: ClassProvider, Len: s.provDist[a], NextHop: s.provHop[a], Flags: s.provFlags[a]}
		default:
			dst[a] = Route{Class: ClassNone, NextHop: -1}
		}
	}
}

// emitPacked writes the selection into a compact struct-of-arrays Routes
// value (the route cache's storage format).
func (s *propScratch) emitPacked(r Routes) {
	for a := 0; a < len(r.class); a++ {
		switch {
		case s.custDist[a] == 0:
			r.set(a, ClassOwn, 0, -1, s.custFlags[a])
		case s.custDist[a] != unreached:
			r.set(a, ClassCustomer, s.custDist[a], s.custHop[a], s.custFlags[a])
		case s.peerDist[a] != unreached:
			r.set(a, ClassPeer, s.peerDist[a], s.peerHop[a], s.peerFlags[a])
		case s.provDist[a] != unreached:
			r.set(a, ClassProvider, s.provDist[a], s.provHop[a], s.provFlags[a])
		default:
			r.set(a, ClassNone, 0, -1, 0)
		}
	}
}

// emitFlags writes only the union-of-origin flags of each reachable AS
// (the SimulateHijack output), skipping the full route materialization.
func (s *propScratch) emitFlags(dst []uint8) {
	for a := range dst {
		switch {
		case s.custDist[a] != unreached:
			dst[a] = s.custFlags[a]
		case s.peerDist[a] != unreached:
			dst[a] = s.peerFlags[a]
		case s.provDist[a] != unreached:
			dst[a] = s.provFlags[a]
		default:
			dst[a] = 0
		}
	}
}
