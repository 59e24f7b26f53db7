package mat

// Sym is a symmetric n×n matrix stored as its upper triangle with the
// diagonal: row i's cells (i, i..n-1) follow row i-1's in Data, n(n+1)/2
// values in all. At reads (i, j) and (j, i) from the same cell, so a Sym
// is symmetric by construction.
//
// It holds the completed rating matrix C_m, which every Result keeps:
// half the bytes of a dense n×n Matrix for the same values.
type Sym struct {
	n    int
	Data []float64 // len n(n+1)/2, the upper triangle row by row
}

// NewSym returns a zeroed n×n symmetric matrix.
func NewSym(n int) *Sym {
	return &Sym{n: n, Data: make([]float64, n*(n+1)/2)}
}

// N returns the matrix dimension.
func (s *Sym) N() int { return s.n }

// rowStart returns the offset in Data of cell (i, i).
func (s *Sym) rowStart(i int) int { return i*s.n - i*(i-1)/2 }

// At returns element (i, j), equal to element (j, i).
func (s *Sym) At(i, j int) float64 {
	if i > j {
		i, j = j, i
	}
	return s.Data[s.rowStart(i)+j-i]
}

// Set assigns element (i, j) and with it (j, i).
func (s *Sym) Set(i, j int, v float64) {
	if i > j {
		i, j = j, i
	}
	s.Data[s.rowStart(i)+j-i] = v
}

// Row returns a view (not a copy) of the stored part of row i: the cells
// (i, i..n-1).
func (s *Sym) Row(i int) []float64 {
	k := s.rowStart(i)
	return s.Data[k : k+s.n-i]
}
