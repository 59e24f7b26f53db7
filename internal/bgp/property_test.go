package bgp

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// randomTopology builds a random valley-free-able topology: a provider DAG
// (AS i buys from lower-indexed ASes) plus random peering.
func randomTopology(rng *rand.Rand, n int) *Topology {
	t := NewTopology(n)
	kind := map[[2]int]bool{} // existing transit pairs (canonical order)
	key := func(a, b int) [2]int {
		if a > b {
			a, b = b, a
		}
		return [2]int{a, b}
	}
	for i := 1; i < n; i++ {
		for k := 0; k < 1+rng.Intn(2); k++ {
			p := rng.Intn(i)
			if kind[key(i, p)] {
				continue
			}
			kind[key(i, p)] = true
			t.AddC2P(i, p)
		}
	}
	for k := 0; k < n/2; k++ {
		a, b := rng.Intn(n), rng.Intn(n)
		// A pair has exactly one relationship: never peer where a transit
		// link already exists.
		if a != b && !kind[key(a, b)] {
			kind[key(a, b)] = true
			t.AddP2P(a, b)
		}
	}
	return t
}

// Property: every reconstructed path is valley-free — once the path goes
// "down" (provider→customer) or "across" (peer), it never goes "up" or
// "across" again.
func TestValleyFreeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(40)
		top := randomTopology(rng, n)
		dest := rng.Intn(n)
		routes := top.PropagateFrom(dest)
		isProviderOf := func(p, c int) bool {
			for _, x := range top.providers[c] {
				if int(x) == p {
					return true
				}
			}
			return false
		}
		isPeer := func(a, b int) bool {
			for _, x := range top.peers[a] {
				if int(x) == b {
					return true
				}
			}
			return false
		}
		for src := 0; src < n; src++ {
			p := Path(routes, src)
			if p == nil {
				continue
			}
			// Walking from src toward dest: hops are "up" when the next
			// AS is our provider, "across" when a peer, "down" when our
			// customer. Valley-free: up* (across)? down*.
			phase := 0 // 0=climbing, 1=crossed, 2=descending
			for i := 0; i+1 < len(p); i++ {
				x, y := p[i], p[i+1]
				switch {
				case isProviderOf(y, x): // up
					if phase != 0 {
						return false
					}
				case isPeer(x, y): // across
					if phase != 0 {
						return false
					}
					phase = 1
				case isProviderOf(x, y): // down
					phase = 2
				default:
					return false // hop over a non-existent link
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: route preference — an AS with any customer route never selects
// peer or provider; with a peer route never selects provider.
func TestPreferenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(30)
		top := randomTopology(rng, n)
		dest := rng.Intn(n)
		routes := top.PropagateFrom(dest)
		// Recompute customer-route reachability independently: BFS from
		// dest over customer→provider edges.
		reach := make([]bool, n)
		reach[dest] = true
		queue := []int{dest}
		for len(queue) > 0 {
			x := queue[0]
			queue = queue[1:]
			for _, p := range top.providers[x] {
				if !reach[p] {
					reach[p] = true
					queue = append(queue, int(p))
				}
			}
		}
		for as := 0; as < n; as++ {
			if reach[as] && as != dest {
				if routes[as].Class != ClassCustomer {
					return false
				}
			}
			if !reach[as] && routes[as].Class == ClassCustomer {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: hijack flags are monotone — adding more victim seeds can never
// remove the victim flag from an AS that already had it via strictly
// preferred routes... (weaker check: every seed AS carries its own flag).
func TestHijackSeedsCarryFlags(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(30)
		top := randomTopology(rng, n)
		nv, na := 1+rng.Intn(3), 1+rng.Intn(3)
		var vict, att []int
		for i := 0; i < nv; i++ {
			vict = append(vict, rng.Intn(n))
		}
		for i := 0; i < na; i++ {
			att = append(att, rng.Intn(n))
		}
		flags := top.SimulateHijack(vict, att)
		for _, s := range vict {
			if flags[s]&FlagVictim == 0 {
				return false
			}
		}
		for _, s := range att {
			if flags[s]&FlagAttacker == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
