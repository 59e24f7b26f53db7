package bgp

// Routes is a compact struct-of-arrays view of one propagation result:
// per AS, the selected route's next hop, AS-path length, class and origin
// flags, stored in four parallel arrays (8 bytes per AS instead of the 16
// bytes of a padded []Route). This is the route cache's storage format;
// experiments that sweep thousands of cached destinations read through it
// directly without materializing []Route slices.
//
// The zero Routes is empty. A Routes value is immutable once published by
// the cache and safe for concurrent readers.
type Routes struct {
	next  []int32
	plen  []uint16
	class []uint8
	flags []uint8
}

// newRoutes allocates a packed view for an n-AS topology.
func newRoutes(n int) Routes {
	return Routes{
		next:  make([]int32, n),
		plen:  make([]uint16, n),
		class: make([]uint8, n),
		flags: make([]uint8, n),
	}
}

// set writes AS a's selected route. Path lengths are bounded by the
// topology diameter; 65535 hops would require a pathological provider
// chain longer than any AS graph this package models, so overflow is a
// programming error worth a panic rather than silent truncation.
func (r Routes) set(a int, class RouteClass, length, nextHop int32, flags uint8) {
	if length > 65535 {
		panic("bgp: AS-path length overflows packed route encoding")
	}
	r.next[a] = nextHop
	r.plen[a] = uint16(length)
	r.class[a] = uint8(class)
	r.flags[a] = flags
}

// Len reports the number of ASes covered by the view.
func (r Routes) Len() int { return len(r.class) }

// At reconstructs AS a's route in the classic Route form.
func (r Routes) At(a int) Route {
	return Route{
		Class:   RouteClass(r.class[a]),
		Len:     int32(r.plen[a]),
		NextHop: r.next[a],
		Flags:   r.flags[a],
	}
}

// Class returns the route class selected by AS a.
func (r Routes) Class(a int) RouteClass { return RouteClass(r.class[a]) }

// PathLen returns the AS-path length of a's selected route. It is only
// meaningful when Class(a) != ClassNone.
func (r Routes) PathLen(a int) int { return int(r.plen[a]) }

// NextHop returns the neighbor a forwards through, or -1 for origins and
// unreachable ASes.
func (r Routes) NextHop(a int) int { return int(r.next[a]) }

// Reachable reports whether a selected any route to the destination.
func (r Routes) Reachable(a int) bool { return r.class[a] != uint8(ClassNone) }

// Bytes reports the packed view's storage footprint, used by the cache's
// byte accounting.
func (r Routes) Bytes() int {
	return 4*len(r.next) + 2*len(r.plen) + len(r.class) + len(r.flags)
}

// Path walks the next-hop chain from AS `from` toward the destination the
// view was computed for, mirroring Path on []Route: nil when `from` has no
// route, and nil on a corrupt (cyclic) chain.
func (r Routes) PathFrom(from int) []int {
	if from < 0 || from >= r.Len() || !r.Reachable(from) {
		return nil
	}
	path := []int{from}
	cur := from
	for RouteClass(r.class[cur]) != ClassOwn {
		nh := int(r.next[cur])
		if nh < 0 || len(path) > r.Len()+1 {
			return nil // corrupt route data
		}
		path = append(path, nh)
		cur = nh
	}
	return path
}

// AppendPathFrom is PathFrom with caller-provided storage: it appends the
// walk onto buf and returns the extended slice, letting hot loops reuse
// one backing array across destinations.
func (r Routes) AppendPathFrom(buf []int, from int) []int {
	if from < 0 || from >= r.Len() || !r.Reachable(from) {
		return buf
	}
	start := len(buf)
	buf = append(buf, from)
	cur := from
	for RouteClass(r.class[cur]) != ClassOwn {
		nh := int(r.next[cur])
		if nh < 0 || len(buf)-start > r.Len()+1 {
			return buf[:start] // corrupt route data
		}
		buf = append(buf, nh)
		cur = nh
	}
	return buf
}
