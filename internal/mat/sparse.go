package mat

// View is read access to the cells of a matrix. It is how the completion,
// rank and scoring code reads an estimated matrix E: a dense Matrix and a
// Sparse both provide it.
type View interface {
	At(i, j int) float64
}

// Sparse is an n×n matrix that stores values only on its support and
// reads 0 everywhere else. Each row keeps its stored columns sorted, with
// their values alongside, so a lookup is one binary search over the row.
//
// It holds the evidence matrix E_m, which is non-zero only on the
// observed mask: a few percent of the cells at a study metro, under 1% at
// an Internet-scale head metro. A row with nothing stored is nil whatever
// its history, so two Sparse matrices that store the same cells with the
// same values are also reflect.DeepEqual.
type Sparse struct {
	n    int
	cols [][]int32   // cols[i] = sorted stored columns of row i
	vals [][]float64 // vals[i][k] = value at (i, cols[i][k])
}

// NewSparse returns an n×n sparse matrix with nothing stored.
func NewSparse(n int) *Sparse {
	return &Sparse{n: n, cols: make([][]int32, n), vals: make([][]float64, n)}
}

// N returns the matrix dimension.
func (s *Sparse) N() int { return s.n }

// Lookup returns the value stored at (i, j) and whether one is.
func (s *Sparse) Lookup(i, j int) (float64, bool) {
	if k, ok := searchRow(s.cols[i], int32(j)); ok {
		return s.vals[i][k], true
	}
	return 0, false
}

// At returns the value at (i, j): the stored value, or 0 off the support.
func (s *Sparse) At(i, j int) float64 {
	v, _ := s.Lookup(i, j)
	return v
}

// Row returns the stored columns of row i, sorted, and their values: views
// (not copies) that the next Set or Unset on the row may invalidate.
func (s *Sparse) Row(i int) (cols []int32, vals []float64) {
	return s.cols[i], s.vals[i]
}

// Set stores v at (i, j), keeping row i sorted. A stored 0 still counts as
// stored for Lookup.
func (s *Sparse) Set(i, j int, v float64) {
	cols := s.cols[i]
	k, ok := searchRow(cols, int32(j))
	if ok {
		s.vals[i][k] = v
		return
	}
	vals := s.vals[i]
	cols = append(cols, 0)
	copy(cols[k+1:], cols[k:])
	cols[k] = int32(j)
	vals = append(vals, 0)
	copy(vals[k+1:], vals[k:])
	vals[k] = v
	s.cols[i], s.vals[i] = cols, vals
}

// Unset removes (i, j) from the support.
func (s *Sparse) Unset(i, j int) {
	cols := s.cols[i]
	k, ok := searchRow(cols, int32(j))
	if !ok {
		return
	}
	if len(cols) == 1 {
		s.cols[i], s.vals[i] = nil, nil
		return
	}
	s.cols[i] = append(cols[:k], cols[k+1:]...)
	s.vals[i] = append(s.vals[i][:k], s.vals[i][k+1:]...)
}

// Reset empties the matrix in place.
func (s *Sparse) Reset() {
	clear(s.cols)
	clear(s.vals)
}
