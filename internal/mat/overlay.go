package mat

// Overlay presents a base Mask with a small set of entries removed, without
// copying the base. It is the holdout primitive of the rank-estimation and
// tuning loops: a draw removes a few entries per row, scores a completion,
// and moves on — with an Overlay that is a handful of short per-row delta
// slices instead of a full mask clone per draw.
//
// An Overlay never mutates its base. Reset clears the deltas so one Overlay
// can be reused across draws. The base mask must not be mutated while an
// Overlay over it is in use.
type Overlay struct {
	base    *Mask
	removed [][]int32 // removed[i] = sorted removed columns of row i (nil for most rows)
	touched []int32   // rows with a non-empty delta, unordered
}

// NewOverlay returns an overlay over base with no entries removed.
func NewOverlay(base *Mask) *Overlay {
	return &Overlay{base: base, removed: make([][]int32, base.n)}
}

// removeOne records the removal of column j from row i.
func (o *Overlay) removeOne(i, j int32) {
	row := o.removed[i]
	pos, ok := searchRow(row, j)
	if ok {
		return
	}
	if len(row) == 0 {
		o.touched = append(o.touched, i)
	}
	row = append(row, 0)
	copy(row[pos+1:], row[pos:])
	row[pos] = j
	o.removed[i] = row
}

// Remove marks entry (i, j) (and its mirror) as removed. Removing an entry
// the base does not observe is a no-op for Has/RowCount, which only ever
// subtract entries present in the base.
func (o *Overlay) Remove(i, j int) {
	o.removeOne(int32(i), int32(j))
	if i != j {
		o.removeOne(int32(j), int32(i))
	}
}

// Reset clears all removals, making the overlay transparent again. The
// per-row delta slices are retained for reuse.
func (o *Overlay) Reset() {
	for _, i := range o.touched {
		o.removed[i] = o.removed[i][:0]
	}
	o.touched = o.touched[:0]
}

// Has reports whether entry (i, j) is observed in the overlaid mask.
func (o *Overlay) Has(i, j int) bool {
	if _, rm := searchRow(o.removed[i], int32(j)); rm {
		return false
	}
	return o.base.Has(i, j)
}

// RowCount returns the number of observed entries in row i after removals.
func (o *Overlay) RowCount(i int) int {
	n := len(o.base.rows[i])
	// Deltas only ever hold base-observed columns in practice (holdouts are
	// drawn from the mask), but count defensively against stray removals.
	for _, j := range o.removed[i] {
		if _, ok := searchRow(o.base.rows[i], j); ok {
			n--
		}
	}
	return n
}

// Removed returns the sorted removed columns of row i as a read-only view
// (nil when the row has no delta).
func (o *Overlay) Removed(i int) []int32 { return o.removed[i] }
