// Package igdb models the public geographic database the paper builds on
// (iGDB [11], itself compiled from PeeringDB, PCH and Hurricane Electric):
// which ASes have physical presence at which metros. Like the real thing,
// the database is *incomplete* — ASes under-report facilities — and the
// paper's iGDB-derived validation dataset inherits that incompleteness
// ("this technique assumes the database is complete, which is difficult to
// verify", Appx. H).
package igdb

import (
	"sort"

	"metascritic/internal/asgraph"
	"metascritic/internal/ipmap"
	"metascritic/internal/netsim"
)

// Database is a snapshot of publicly-reported AS footprints.
type Database struct {
	// footprints[as] = sorted metros the AS reports presence at.
	footprints map[int][]int
}

// Build derives the public database from a world: every true presence is
// reported with probability (1 - missRate), deterministically per
// (AS, metro) so repeated builds agree. Hypergiants and large ISPs report
// diligently (PeeringDB hygiene); stubs and enterprises under-report.
func Build(w *netsim.World, missRate float64) *Database {
	db := &Database{footprints: map[int][]int{}}
	for _, a := range w.G.ASes {
		miss := missRate
		switch a.Class {
		case asgraph.Hypergiant, asgraph.LargeISP:
			// Cloud providers and big ISPs keep records current.
			miss = missRate / 4
		case asgraph.Enterprise, asgraph.Stub:
			miss = missRate * 1.5 // sloppier reporting at the edge
		}
		if miss > 0.9 {
			miss = 0.9
		}
		for _, m := range a.Metros {
			if ipmap.Hash01From(ipmap.Hash3(a.Index, m, 0x16db)) < miss {
				continue // unreported presence
			}
			db.footprints[a.Index] = append(db.footprints[a.Index], m)
		}
	}
	for as := range db.footprints {
		sort.Ints(db.footprints[as])
	}
	return db
}

// Footprint returns the metros the AS publicly reports (sorted; nil when
// the AS reports nothing).
func (db *Database) Footprint(as int) []int {
	return db.footprints[as]
}

// Colocated returns the metros where both ASes report presence.
func (db *Database) Colocated(a, b int) []int {
	fa, fb := db.footprints[a], db.footprints[b]
	var out []int
	i, j := 0, 0
	for i < len(fa) && j < len(fb) {
		switch {
		case fa[i] == fb[j]:
			out = append(out, fa[i])
			i++
			j++
		case fa[i] < fb[j]:
			i++
		default:
			j++
		}
	}
	return out
}

// OnlyColocatedAt reports whether the database says the pair overlaps at
// exactly the given metro — the geographic hint the iGDB validation
// dataset is built from (a link between such a pair must be at that metro).
func (db *Database) OnlyColocatedAt(a, b, metro int) bool {
	co := db.Colocated(a, b)
	return len(co) == 1 && co[0] == metro
}
