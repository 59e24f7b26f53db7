package bgp

import (
	"math/rand"
	"testing"
)

// referencePropagate is a verbatim copy of the pre-pooling Propagate
// implementation (heap-based Dijkstra, per-call allocations). The pooled
// path must stay byte-identical to it — every experiment output in the
// repo rides on that equivalence.
func referencePropagate(t *Topology, origins []Origin) []Route {
	n := t.n
	custDist := refFill32(n, unreached)
	custFlags := make([]uint8, n)
	custHop := refFill32(n, -1)

	queue := make([]int32, 0, n)
	for _, o := range origins {
		if custDist[o.AS] != 0 {
			custDist[o.AS] = 0
			queue = append(queue, int32(o.AS))
		}
		custFlags[o.AS] |= o.Flag
	}
	for head := 0; head < len(queue); head++ {
		x := queue[head]
		for _, p := range t.providers[x] {
			if custDist[p] == unreached {
				custDist[p] = custDist[x] + 1
				queue = append(queue, p)
			}
		}
	}
	for _, x := range queue {
		if custDist[x] == 0 {
			continue
		}
		best := int32(-1)
		for _, c := range t.customers[x] {
			if custDist[c] == custDist[x]-1 {
				custFlags[x] |= custFlags[c]
				if best == -1 || c < best {
					best = c
				}
			}
		}
		custHop[x] = best
	}

	peerDist := refFill32(n, unreached)
	peerFlags := make([]uint8, n)
	peerHop := refFill32(n, -1)
	for a := 0; a < n; a++ {
		for _, b := range t.peers[a] {
			if custDist[b] == unreached {
				continue
			}
			d := custDist[b] + 1
			switch {
			case d < peerDist[a]:
				peerDist[a] = d
				peerFlags[a] = custFlags[b]
				peerHop[a] = b
			case d == peerDist[a]:
				peerFlags[a] |= custFlags[b]
				if b < peerHop[a] {
					peerHop[a] = b
				}
			}
		}
	}

	provDist := refFill32(n, unreached)
	provFlags := make([]uint8, n)
	provHop := refFill32(n, -1)
	pq := &refHeap{}
	exportLen := func(q int32) int32 {
		if custDist[q] != unreached {
			return custDist[q]
		}
		if peerDist[q] != unreached {
			return peerDist[q]
		}
		return provDist[q]
	}
	for q := int32(0); q < int32(n); q++ {
		if custDist[q] != unreached || peerDist[q] != unreached {
			pq.push(refNode{q, exportLen(q)})
		}
	}
	settled := make([]bool, n)
	for len(*pq) > 0 {
		nd := pq.pop()
		q := nd.id
		if settled[q] || exportLen(q) != nd.dist {
			continue
		}
		settled[q] = true
		for _, c := range t.customers[q] {
			cand := nd.dist + 1
			if cand < provDist[c] {
				provDist[c] = cand
				if custDist[c] == unreached && peerDist[c] == unreached {
					pq.push(refNode{c, cand})
				}
			}
		}
	}
	order := make([]int32, 0, n)
	for a := int32(0); a < int32(n); a++ {
		if provDist[a] != unreached {
			order = append(order, a)
		}
	}
	refSortByDist(order, provDist)
	selFlags := func(q int32) uint8 {
		if custDist[q] != unreached {
			return custFlags[q]
		}
		if peerDist[q] != unreached {
			return peerFlags[q]
		}
		return provFlags[q]
	}
	for _, a := range order {
		best := int32(-1)
		for _, q := range t.providers[a] {
			if exportLen(q) != unreached && exportLen(q)+1 == provDist[a] {
				provFlags[a] |= selFlags(q)
				if best == -1 || q < best {
					best = q
				}
			}
		}
		provHop[a] = best
	}

	routes := make([]Route, n)
	for a := 0; a < n; a++ {
		switch {
		case custDist[a] == 0:
			routes[a] = Route{Class: ClassOwn, Len: 0, NextHop: -1, Flags: custFlags[a]}
		case custDist[a] != unreached:
			routes[a] = Route{Class: ClassCustomer, Len: custDist[a], NextHop: custHop[a], Flags: custFlags[a]}
		case peerDist[a] != unreached:
			routes[a] = Route{Class: ClassPeer, Len: peerDist[a], NextHop: peerHop[a], Flags: peerFlags[a]}
		case provDist[a] != unreached:
			routes[a] = Route{Class: ClassProvider, Len: provDist[a], NextHop: provHop[a], Flags: provFlags[a]}
		default:
			routes[a] = Route{Class: ClassNone, NextHop: -1}
		}
	}
	return routes
}

type refNode struct {
	id   int32
	dist int32
}

type refHeap []refNode

func (h *refHeap) push(x refNode) {
	*h = append(*h, x)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if s[parent].dist <= s[i].dist {
			break
		}
		s[parent], s[i] = s[i], s[parent]
		i = parent
	}
}

func (h *refHeap) pop() refNode {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s = s[:last]
	*h = s
	i := 0
	for {
		l := 2*i + 1
		if l >= last {
			break
		}
		small := l
		if r := l + 1; r < last && s[r].dist < s[l].dist {
			small = r
		}
		if s[i].dist <= s[small].dist {
			break
		}
		s[i], s[small] = s[small], s[i]
		i = small
	}
	return top
}

func refFill32(n int, v int32) []int32 {
	s := make([]int32, n)
	for i := range s {
		s[i] = v
	}
	return s
}

func refSortByDist(ids []int32, dist []int32) {
	maxD := int32(0)
	for _, id := range ids {
		if dist[id] > maxD {
			maxD = dist[id]
		}
	}
	buckets := make([][]int32, maxD+1)
	for _, id := range ids {
		buckets[dist[id]] = append(buckets[dist[id]], id)
	}
	k := 0
	for _, b := range buckets {
		for _, id := range b {
			ids[k] = id
			k++
		}
	}
}

func randomOrigins(rng *rand.Rand, n int) []Origin {
	k := 1 + rng.Intn(4)
	origins := make([]Origin, 0, k)
	for i := 0; i < k; i++ {
		origins = append(origins, Origin{AS: rng.Intn(n), Flag: uint8(1 << uint(rng.Intn(3)))})
	}
	return origins
}

// TestPropagateIntoMatchesReference pins the pooled propagation path
// byte-identical to the seed implementation across random topologies and
// multi-origin announcement sets, with a shared dst slice reused across
// calls to exercise the epoch-stamped lazy reset.
func TestPropagateIntoMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var dst []Route
	for trial := 0; trial < 60; trial++ {
		n := 10 + rng.Intn(120)
		top := randomTopology(rng, n)
		for rep := 0; rep < 4; rep++ {
			origins := randomOrigins(rng, n)
			want := referencePropagate(top, origins)
			dst = top.PropagateInto(dst, origins)
			for a := range want {
				if dst[a] != want[a] {
					t.Fatalf("trial %d rep %d: AS %d: pooled %+v, reference %+v (origins %v)",
						trial, rep, a, dst[a], want[a], origins)
				}
			}
		}
	}
}

// TestPackedRoutesMatchReference pins the cache's struct-of-arrays
// encoding: expanding the packed view must reproduce the reference
// single-origin propagation exactly.
func TestPackedRoutesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		n := 10 + rng.Intn(100)
		top := randomTopology(rng, n)
		cache := NewRouteCache(top)
		for rep := 0; rep < 3; rep++ {
			d := rng.Intn(n)
			want := referencePropagate(top, []Origin{{AS: d, Flag: 1}})
			got := cache.RoutesTo(d)
			if got.Len() != n {
				t.Fatalf("packed view covers %d ASes, want %d", got.Len(), n)
			}
			for a := 0; a < n; a++ {
				if got.At(a) != want[a] {
					t.Fatalf("trial %d dest %d: AS %d: packed %+v, reference %+v",
						trial, d, a, got.At(a), want[a])
				}
				wantPath := Path(want, a)
				gotPath := got.PathFrom(a)
				if len(wantPath) != len(gotPath) {
					t.Fatalf("path length mismatch at AS %d: %v vs %v", a, gotPath, wantPath)
				}
				for i := range wantPath {
					if wantPath[i] != gotPath[i] {
						t.Fatalf("path mismatch at AS %d: %v vs %v", a, gotPath, wantPath)
					}
				}
			}
		}
	}
}

// FuzzPropagateOrigins fuzzes the origin set (count, ids, flags, and
// duplicates) on a fixed topology against the reference implementation.
func FuzzPropagateOrigins(f *testing.F) {
	f.Add(int64(1), uint8(1), uint8(2), uint8(3))
	f.Add(int64(9), uint8(0), uint8(255), uint8(7))
	rng := rand.New(rand.NewSource(1234))
	top := randomTopology(rng, 60)
	f.Fuzz(func(t *testing.T, seed int64, a, b, c uint8) {
		n := top.N()
		origins := []Origin{
			{AS: int(seed%int64(n)+int64(n)) % n, Flag: a},
			{AS: int(a) % n, Flag: b},
			{AS: int(b) % n, Flag: c},
			{AS: int(a) % n, Flag: c}, // duplicate origin, extra flag
		}
		want := referencePropagate(top, origins)
		got := top.PropagateInto(nil, origins)
		for as := range want {
			if got[as] != want[as] {
				t.Fatalf("AS %d: pooled %+v, reference %+v (origins %v)", as, got[as], want[as], origins)
			}
		}
	})
}

// TestSimulateHijackMatchesReference checks the flags-only emitter against
// a full reference propagation.
func TestSimulateHijackMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 20; trial++ {
		n := 10 + rng.Intn(100)
		top := randomTopology(rng, n)
		nv := 1 + rng.Intn(3)
		na := 1 + rng.Intn(3)
		var vict, att []int
		for i := 0; i < nv; i++ {
			vict = append(vict, rng.Intn(n))
		}
		for i := 0; i < na; i++ {
			att = append(att, rng.Intn(n))
		}
		origins := make([]Origin, 0, nv+na)
		for _, s := range vict {
			origins = append(origins, Origin{AS: s, Flag: FlagVictim})
		}
		for _, s := range att {
			origins = append(origins, Origin{AS: s, Flag: FlagAttacker})
		}
		want := referencePropagate(top, origins)
		got := top.SimulateHijack(vict, att)
		for a := range want {
			var exp uint8
			if want[a].Reachable() {
				exp = want[a].Flags
			}
			if got[a] != exp {
				t.Fatalf("trial %d AS %d: flags %d, want %d", trial, a, got[a], exp)
			}
		}
	}
}
