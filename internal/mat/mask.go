package mat

// Mask records which entries of a matrix are observed. It is the support
// set Ω of the matrix-completion problem: completion only trusts entries in
// the mask, and the rank-estimation loop removes and restores mask entries
// to build holdout sets.
//
// Internally the mask is CSR-style: one sorted []int32 column slice per
// row. Compared to the earlier map-of-bools representation this makes
// RowEntries/Entries allocation- and sort-free on the hot path (the order
// is maintained by Set), makes Clone a flat copy, and admits the zero-copy
// RowView used by the completion kernel. Overlay (overlay.go) layers
// holdout removals on top without copying.
type Mask struct {
	n    int
	rows [][]int32 // rows[i] = sorted observed column indices of row i
}

// NewMask returns an empty mask over an n×n matrix.
func NewMask(n int) *Mask {
	return &Mask{n: n, rows: make([][]int32, n)}
}

// N returns the matrix dimension the mask covers.
func (m *Mask) N() int { return m.n }

// searchRow returns the position of j in row (or the insertion point) and
// whether j is present.
func searchRow(row []int32, j int32) (int, bool) {
	lo, hi := 0, len(row)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if row[mid] < j {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(row) && row[lo] == j
}

// setOne inserts j into row i, keeping the row sorted.
func (m *Mask) setOne(i, j int32) {
	row := m.rows[i]
	pos, ok := searchRow(row, j)
	if ok {
		return
	}
	row = append(row, 0)
	copy(row[pos+1:], row[pos:])
	row[pos] = j
	m.rows[i] = row
}

// unsetOne removes j from row i.
func (m *Mask) unsetOne(i, j int32) {
	row := m.rows[i]
	pos, ok := searchRow(row, j)
	if !ok {
		return
	}
	m.rows[i] = append(row[:pos], row[pos+1:]...)
}

// Set marks entry (i, j) observed (and (j, i), keeping the mask symmetric).
func (m *Mask) Set(i, j int) {
	m.setOne(int32(i), int32(j))
	if i != j {
		m.setOne(int32(j), int32(i))
	}
}

// Unset removes entry (i, j) (and its mirror).
func (m *Mask) Unset(i, j int) {
	m.unsetOne(int32(i), int32(j))
	if i != j {
		m.unsetOne(int32(j), int32(i))
	}
}

// Has reports whether entry (i, j) is observed.
func (m *Mask) Has(i, j int) bool {
	_, ok := searchRow(m.rows[i], int32(j))
	return ok
}

// RowCount returns the number of observed entries in row i.
func (m *Mask) RowCount(i int) int { return len(m.rows[i]) }

// RowEntries returns the observed column indices of row i, sorted. Sorted
// output keeps every consumer deterministic (several shuffle the result
// with a seeded RNG). The returned slice is freshly allocated — callers
// may reorder or mutate it freely without corrupting the mask's sorted-row
// CSR invariant (pinned by TestRowEntriesReturnsCopy). Use RowView when a
// read-only view suffices.
func (m *Mask) RowEntries(i int) []int {
	row := m.rows[i]
	out := make([]int, len(row))
	for k, j := range row {
		out[k] = int(j)
	}
	return out
}

// RowView returns the sorted observed column indices of row i as a
// zero-copy view into the mask's internal storage. The view must be
// treated as read-only and is invalidated by the next Set/Unset/Reset
// on the mask.
func (m *Mask) RowView(i int) []int32 { return m.rows[i] }

// AppendRowEntries is RowEntries with caller-provided storage: it appends
// row i's sorted column indices onto buf and returns the extended slice,
// letting hot loops (the holdout sampler redraws every row each round)
// reuse one backing array instead of allocating per row.
func (m *Mask) AppendRowEntries(buf []int, i int) []int {
	for _, j := range m.rows[i] {
		buf = append(buf, int(j))
	}
	return buf
}

// Count returns the total number of observed entries, counting (i,j) and
// (j,i) separately (diagonal entries once).
func (m *Mask) Count() int {
	total := 0
	for _, r := range m.rows {
		total += len(r)
	}
	return total
}

// Reset empties the mask in place, keeping row capacity for reuse.
func (m *Mask) Reset() {
	for i := range m.rows {
		m.rows[i] = m.rows[i][:0]
	}
}

// Clone returns a deep copy of the mask.
func (m *Mask) Clone() *Mask {
	c := NewMask(m.n)
	for i, r := range m.rows {
		if len(r) > 0 {
			c.rows[i] = append(make([]int32, 0, len(r)), r...)
		}
	}
	return c
}

// Entries calls fn for every observed entry with i <= j exactly once, in
// deterministic (row-major, sorted-column) order.
func (m *Mask) Entries(fn func(i, j int)) {
	for i, row := range m.rows {
		// Rows are sorted, so binary-search the first j >= i.
		start, _ := searchRow(row, int32(i))
		for _, j := range row[start:] {
			fn(i, int(j))
		}
	}
}
