package probe

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"metascritic/internal/asgraph"
)

// TestClassMemoMatchesScore drives a selector through random Report
// sequences that add penalties (uninformative outcomes) and clear them
// (informative ones), and after each round requires, for every ordered
// pair, that the batch's memo equals a direct score, and for every row
// that the exploit scan, which walks the row's penalty list alongside its
// columns, equals a scan built from direct scores. The penalty lists must
// stay mirrored between the two rows of every pair.
func TestClassMemoMatchesScore(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		n := []int{9, 40, 90}[seed%3]
		pool := [][asgraph.NumGeoScopes]int{{1, 1, 1, 1}, {2, 7, 13, 24}, {4, 16, 32, 64}}[seed%3]
		t.Run(fmt.Sprintf("seed=%d/n=%d", seed, n), func(t *testing.T) {
			world := rand.New(rand.NewSource(seed))
			g, members, vps, hitlist := goldenWorld(world, n, pool)
			s := NewSelector(g, 0, members, vps, hitlist)
			rng := rand.New(rand.NewSource(seed))
			mask := make([]bool, n*n)
			has := func(i, j int) bool { return mask[i*n+j] }
			fill, need := make([]int, n), make([]int, n)
			pending := make([]bool, n*n)
			penalized := 0
			for round := 0; round < 8; round++ {
				for k := 0; k < 6*n; k++ {
					i, j := world.Intn(n), world.Intn(n)
					if _, m := s.EntryProb(i, j, rng); m != nil {
						s.Report(*m, world.Intn(4) == 0)
					}
				}
				for k := 0; k < n; k++ {
					i, j := world.Intn(n), world.Intn(n)
					mask[i*n+j], mask[j*n+i] = true, true
				}
				// A batch of size 0 starts a new batch generation.
				s.SelectBatch(0, 0, fill, need, has, rng)
				requireMirroredPenalties(t, s)
				for i := 0; i < n; i++ {
					if len(s.penalties[i]) > 0 {
						penalized++
					}
					for j := 0; j < n; j++ {
						if i == j {
							continue
						}
						p, v, tt := s.score(i, j)
						if got := s.memo(i, j); math.Float64bits(got.p) != math.Float64bits(p) || int(got.v) != v || int(got.t) != tt {
							t.Fatalf("round %d: memo(%d,%d) = (%v,%d,%d), score = (%v,%d,%d)", round, i, j, got.p, got.v, got.t, p, v, tt)
						}
					}
					got, want := s.scanRow(i, has, pending), refScan(s, i, has)
					if fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("round %d: scanRow(%d) = %+v, from direct scores %+v", round, i, got, want)
					}
				}
			}
			if penalized == 0 {
				t.Fatalf("no row ever held a penalty")
			}
		})
	}
}

// refScan is scanRow computed from direct scores, with nothing pending.
func refScan(s *Selector, i int, has func(i, j int) bool) rowScan {
	direct := func(i, j int) pairScore {
		p, v, t := s.score(i, j)
		return pairScore{p: p, v: int8(v), t: int8(t)}
	}
	sc := rowScan{bestJ: -1, before: noDraws, after: noDraws, runs: noDraws}
	bestP := 0.1
	for j := 0; j < len(s.Members); j++ {
		if j == i || has(i, j) {
			continue
		}
		a, b := direct(i, j), direct(j, i)
		run := s.sideRun(i, j, a).plus(s.sideRun(j, i, b))
		if p := max(a.p, b.p); p > bestP {
			bestP, sc.bestJ, sc.bestK = p, j, len(sc.cols)
			sc.before, sc.after = sc.runs, noDraws
		} else {
			sc.after = sc.after.plus(run)
		}
		sc.runs = sc.runs.plus(run)
		sc.cols = append(sc.cols, j)
	}
	return sc
}

// requireMirroredPenalties checks that every penalty record holds some
// penalty, that each row's list is sorted, and that row j holds the mirror
// of row i's record of column j.
func requireMirroredPenalties(t *testing.T, s *Selector) {
	t.Helper()
	for i, row := range s.penalties {
		for k, pp := range row {
			if k > 0 && row[k-1].j >= pp.j {
				t.Fatalf("row %d penalty list not sorted", i)
			}
			if pp.entry == 1 && len(pp.out) == 0 && len(pp.in) == 0 {
				t.Fatalf("row %d keeps an empty record of column %d", i, pp.j)
			}
			m := s.penOf(int(pp.j), i)
			if m == nil || m.entry != pp.entry || fmt.Sprint(m.out) != fmt.Sprint(pp.in) || fmt.Sprint(m.in) != fmt.Sprint(pp.out) {
				t.Fatalf("row %d's record of column %d is not mirrored: %+v vs %+v", i, pp.j, pp, m)
			}
		}
	}
}

// TestDeadRowSkipMatchesScan runs the same selections from a Stream the
// selector knows (which skips dead rows whole) and from a plain *rand.Rand
// (which rescans every row), and requires the same batches and the same
// RNG position after each. Priors make only local in-AS probes toward
// IXP-adjacent targets likely, so most rows are dead; row 0's target
// categories get a bound that rejects about half its draws (2³⁰ + 1
// entries, as in TestStreamSkipFallsBackMidRun), so dead-row skips also
// stop mid-run and fall back to a rescan.
func TestDeadRowSkipMatchesScan(t *testing.T) {
	const heavy = 1<<30 + 1
	var prior [NumStrategies]float64
	for id := range prior {
		if st := StrategyFromID(id); st.VPGeo == asgraph.SameMetro && st.VPTop == VPInAS && st.TgtTop == TgtAdjIXP {
			prior[id] = 1
		}
	}
	skips, rescans := 0, 0
	for seed := int64(1); seed <= 4; seed++ {
		n := 60 + 20*int(seed)
		world := rand.New(rand.NewSource(seed))
		g, members, vps, hitlist := goldenWorld(world, n, [asgraph.NumGeoScopes]int{6, 16, 32, 64})
		var sels [2]*Selector
		var rngs [2]*rand.Rand
		for k := range sels {
			s := NewSelector(g, 0, members, vps, hitlist)
			s.InitPriors(prior, 20)
			for c := range s.targetsFor(0) {
				s.tgtCats[0][c].accept = intnBound(heavy)
			}
			sels[k] = s
		}
		st := NewStream(seed)
		sels[0].UseStream(st)
		rngs[0], rngs[1] = st.Rand(), rand.New(rand.NewSource(seed))
		// No outcomes are reported, so every round is a fresh batch over
		// the same scores: exploit picks keep finding winners, and the
		// dead rows before them are skipped again at every pick.
		outcome := rand.New(rand.NewSource(seed + 100))
		has := func(i, j int) bool { return false }
		fill, need := make([]int, n), make([]int, n)
		for round := 0; round < 6; round++ {
			for i := range need {
				need[i] = outcome.Intn(3)
			}
			// Odd rounds explore too: an exploration can pick a pair of
			// two dead rows.
			eps := float64(round%2) * 0.3
			var batches [2][]Measurement
			for k, s := range sels {
				batches[k] = s.SelectBatch(40, eps, fill, need, has, rngs[k])
			}
			if fmt.Sprint(batches[0]) != fmt.Sprint(batches[1]) {
				t.Fatalf("seed %d round %d: stream batch %v, rand batch %v", seed, round, batches[0], batches[1])
			}
			if a, b := rngs[0].Int63(), rngs[1].Int63(); a != b {
				t.Fatalf("seed %d round %d: RNG positions diverged", seed, round)
			}
		}
		if sels[1].deadSkips != 0 {
			t.Fatalf("seed %d: the plain *rand.Rand path skipped %d dead rows", seed, sels[1].deadSkips)
		}
		skips += sels[0].deadSkips
		rescans += sels[0].deadRescans
	}
	t.Logf("%d dead-row skips, %d rescanned", skips, rescans)
	if rescans < 20 || skips-rescans < 20 {
		t.Fatalf("%d dead-row skips, %d of them rescanned: too few of either to compare", skips, rescans)
	}
}
