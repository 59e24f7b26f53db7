package igdb

import (
	"testing"

	"metascritic/internal/asgraph"
	"metascritic/internal/netsim"
)

func testDB(t *testing.T, miss float64) (*netsim.World, *Database) {
	t.Helper()
	w := netsim.Generate(netsim.Config{Seed: 4, Metros: netsim.DefaultMetros(0.1)})
	return w, Build(w, miss)
}

func TestBuildSubsetOfTruth(t *testing.T) {
	w, db := testDB(t, 0.2)
	reported, total := 0, 0
	for _, a := range w.G.ASes {
		for _, m := range db.Footprint(a.Index) {
			if !a.HasMetro(m) {
				t.Fatalf("database invented a presence: AS %d metro %d", a.Index, m)
			}
		}
		reported += len(db.Footprint(a.Index))
		total += len(a.Metros)
	}
	cov := float64(reported) / float64(total)
	if cov < 0.6 || cov >= 1 {
		t.Fatalf("coverage %.3f implausible for miss rate 0.2", cov)
	}
}

func TestBuildDeterministic(t *testing.T) {
	w, db1 := testDB(t, 0.2)
	db2 := Build(w, 0.2)
	for _, a := range w.G.ASes {
		f1, f2 := db1.Footprint(a.Index), db2.Footprint(a.Index)
		if len(f1) != len(f2) {
			t.Fatalf("non-deterministic footprints for AS %d", a.Index)
		}
		for k := range f1 {
			if f1[k] != f2[k] {
				t.Fatalf("non-deterministic footprints for AS %d", a.Index)
			}
		}
	}
}

func TestZeroMissIsComplete(t *testing.T) {
	w, db := testDB(t, 0)
	for _, a := range w.G.ASes {
		if got := len(db.Footprint(a.Index)); got != len(a.Metros) {
			t.Fatalf("zero miss rate: AS %d reports %d of %d metros", a.Index, got, len(a.Metros))
		}
	}
}

func TestColocated(t *testing.T) {
	w, db := testDB(t, 0)
	// A pair of Tier1s (global footprints) is colocated everywhere.
	var t1 []int
	for _, a := range w.G.ASes {
		if a.Class == asgraph.Tier1 {
			t1 = append(t1, a.Index)
		}
	}
	co := db.Colocated(t1[0], t1[1])
	if len(co) != len(w.G.Metros) {
		t.Fatalf("Tier1 pair colocated at %d of %d metros", len(co), len(w.G.Metros))
	}
	// Colocated matches the graph's SharedMetros under zero miss.
	checked := 0
	for _, a := range w.G.ASes[:40] {
		for _, b := range w.G.ASes[:40] {
			if a.Index >= b.Index {
				continue
			}
			want := w.G.SharedMetros(a.Index, b.Index)
			got := db.Colocated(a.Index, b.Index)
			if len(want) != len(got) {
				t.Fatalf("colocated mismatch for (%d,%d): %v vs %v", a.Index, b.Index, got, want)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatalf("nothing checked")
	}
}

func TestOnlyColocatedAt(t *testing.T) {
	_, db := testDB(t, 0)
	found := false
	for as, fp := range db.footprints {
		if len(fp) != 1 {
			continue
		}
		// Find another single-metro AS at the same metro.
		for bs, fp2 := range db.footprints {
			if bs == as || len(fp2) != 1 || fp2[0] != fp[0] {
				continue
			}
			if !db.OnlyColocatedAt(as, bs, fp[0]) {
				t.Fatalf("single-shared-metro pair not detected")
			}
			if db.OnlyColocatedAt(as, bs, fp[0]+1) {
				t.Fatalf("wrong metro accepted")
			}
			found = true
			break
		}
		if found {
			break
		}
	}
	if !found {
		t.Skip("no single-metro pair in tiny world")
	}
}

func TestClassReportingBias(t *testing.T) {
	w, db := testDB(t, 0.3)
	rate := func(cls asgraph.Class) float64 {
		rep, tot := 0, 0
		for _, a := range w.G.ASes {
			if a.Class != cls {
				continue
			}
			tot += len(a.Metros)
			rep += len(db.Footprint(a.Index))
		}
		if tot == 0 {
			return -1
		}
		return float64(rep) / float64(tot)
	}
	hg, stub := rate(asgraph.Hypergiant), rate(asgraph.Stub)
	if hg >= 0 && stub >= 0 && hg <= stub {
		t.Fatalf("hypergiants should report better than stubs: %.2f vs %.2f", hg, stub)
	}
}
