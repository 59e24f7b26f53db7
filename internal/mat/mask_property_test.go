package mat

import (
	"math/rand"
	"sort"
	"testing"
)

// refMask is the seed map-of-bools mask, kept as the property-test oracle
// for the CSR implementation.
type refMask struct {
	n    int
	rows []map[int]bool
}

func newRefMask(n int) *refMask {
	rows := make([]map[int]bool, n)
	for i := range rows {
		rows[i] = map[int]bool{}
	}
	return &refMask{n: n, rows: rows}
}

func (m *refMask) set(i, j int)      { m.rows[i][j] = true; m.rows[j][i] = true }
func (m *refMask) unset(i, j int)    { delete(m.rows[i], j); delete(m.rows[j], i) }
func (m *refMask) has(i, j int) bool { return m.rows[i][j] }
func (m *refMask) rowEntries(i int) []int {
	out := make([]int, 0, len(m.rows[i]))
	for j := range m.rows[i] {
		out = append(out, j)
	}
	sort.Ints(out)
	return out
}
func (m *refMask) count() int {
	t := 0
	for _, r := range m.rows {
		t += len(r)
	}
	return t
}
func (m *refMask) clone() *refMask {
	c := newRefMask(m.n)
	for i, r := range m.rows {
		for j := range r {
			c.rows[i][j] = true
		}
	}
	return c
}

func sameAsRef(t *testing.T, op string, m *Mask, ref *refMask) {
	t.Helper()
	if m.Count() != ref.count() {
		t.Fatalf("after %s: Count = %d, want %d", op, m.Count(), ref.count())
	}
	for i := 0; i < ref.n; i++ {
		if m.RowCount(i) != len(ref.rows[i]) {
			t.Fatalf("after %s: RowCount(%d) = %d, want %d", op, i, m.RowCount(i), len(ref.rows[i]))
		}
		want := ref.rowEntries(i)
		got := m.RowEntries(i)
		if len(got) != len(want) {
			t.Fatalf("after %s: RowEntries(%d) = %v, want %v", op, i, got, want)
		}
		view := m.RowView(i)
		for k := range want {
			if got[k] != want[k] || int(view[k]) != want[k] {
				t.Fatalf("after %s: RowEntries/RowView(%d) = %v/%v, want %v", op, i, got, view, want)
			}
		}
		for j := 0; j < ref.n; j++ {
			if m.Has(i, j) != ref.has(i, j) {
				t.Fatalf("after %s: Has(%d,%d) = %v, want %v", op, i, j, m.Has(i, j), ref.has(i, j))
			}
		}
	}
	// Entries must emit each i<=j pair once, row-major, columns ascending.
	var seen [][2]int
	m.Entries(func(i, j int) { seen = append(seen, [2]int{i, j}) })
	var want [][2]int
	for i := 0; i < ref.n; i++ {
		for _, j := range ref.rowEntries(i) {
			if j >= i {
				want = append(want, [2]int{i, j})
			}
		}
	}
	if len(seen) != len(want) {
		t.Fatalf("after %s: Entries emitted %d pairs, want %d", op, len(seen), len(want))
	}
	for k := range want {
		if seen[k] != want[k] {
			t.Fatalf("after %s: Entries[%d] = %v, want %v", op, k, seen[k], want[k])
		}
	}
}

// TestMaskPropertyVsReference drives the CSR mask and the seed map
// implementation through the same random operation stream — Set, Unset,
// Clone and overlay draws — and checks full observable equivalence after
// every mutation.
func TestMaskPropertyVsReference(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(14)
		m := NewMask(n)
		ref := newRefMask(n)
		for step := 0; step < 120; step++ {
			i, j := rng.Intn(n), rng.Intn(n)
			switch op := rng.Intn(10); {
			case op < 5: // Set, diagonal included
				m.Set(i, j)
				ref.set(i, j)
				sameAsRef(t, "Set", m, ref)
			case op < 8: // Unset, including entries not present
				m.Unset(i, j)
				ref.unset(i, j)
				sameAsRef(t, "Unset", m, ref)
			default: // Clone must deep-copy; mutate the clone only
				c := m.Clone()
				refc := ref.clone()
				c.Set(i, j)
				refc.set(i, j)
				sameAsRef(t, "Clone+Set(clone)", c, refc)
				sameAsRef(t, "Clone(original)", m, ref)
			}
		}

		// Overlay: remove a random subset of observed entries and compare
		// against a reference mask with the same entries unset.
		ov := NewOverlay(m)
		refWork := ref.clone()
		m.Entries(func(i, j int) {
			if rng.Float64() < 0.3 {
				ov.Remove(i, j)
				refWork.unset(i, j)
			}
		})
		for i := 0; i < n; i++ {
			if ov.RowCount(i) != len(refWork.rows[i]) {
				t.Fatalf("overlay RowCount(%d) = %d, want %d", i, ov.RowCount(i), len(refWork.rows[i]))
			}
			for j := 0; j < n; j++ {
				if ov.Has(i, j) != refWork.has(i, j) {
					t.Fatalf("overlay Has(%d,%d) = %v, want %v", i, j, ov.Has(i, j), refWork.has(i, j))
				}
			}
		}
		// Reset makes the overlay transparent again.
		ov.Reset()
		sameAsRef(t, "overlay-base-untouched", m, ref)
		for i := 0; i < n; i++ {
			if ov.RowCount(i) != m.RowCount(i) {
				t.Fatalf("after Reset: overlay RowCount(%d) = %d, want %d", i, ov.RowCount(i), m.RowCount(i))
			}
		}
	}
}

// TestRowEntriesReturnsCopy pins the documented contract that RowEntries
// returns a freshly-allocated slice: callers (e.g. the pipeline's
// threshold picker and the eval holdout builders) shuffle the result with
// seeded RNGs, and that must never disturb the mask's sorted-row CSR
// invariant.
func TestRowEntriesReturnsCopy(t *testing.T) {
	n := 24
	m := NewMask(n)
	rng := rand.New(rand.NewSource(5))
	for k := 0; k < 120; k++ {
		m.Set(rng.Intn(n), rng.Intn(n))
	}
	for i := 0; i < n; i++ {
		before := append([]int32(nil), m.RowView(i)...)
		got := m.RowEntries(i)
		// Mutate the returned slice as hard as possible.
		rng.Shuffle(len(got), func(a, b int) { got[a], got[b] = got[b], got[a] })
		for k := range got {
			got[k] = -1
		}
		view := m.RowView(i)
		if len(view) != len(before) {
			t.Fatalf("row %d: length changed after mutating RowEntries result", i)
		}
		for k := range view {
			if view[k] != before[k] {
				t.Fatalf("row %d: mask storage changed after mutating RowEntries result: %v -> %v", i, before, view)
			}
			if k > 0 && view[k-1] >= view[k] {
				t.Fatalf("row %d: sorted-row invariant broken: %v", i, view)
			}
		}
	}
}
