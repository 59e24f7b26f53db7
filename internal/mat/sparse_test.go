package mat

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestSparseMatchesDense drives a Sparse and a dense reference (a Matrix
// plus a support bitmap) through the same random Set/Unset/Reset sequence
// and compares every one of the n² cells after each step: At, Lookup's
// presence, and that a Sparse rebuilt from the reference's support alone
// is deeply equal, whatever history produced it.
func TestSparseMatchesDense(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(24)
		s := NewSparse(n)
		ref := New(n, n)
		has := make([]bool, n*n)
		for step := 0; step < 600; step++ {
			i, j := rng.Intn(n), rng.Intn(n)
			switch op := rng.Intn(20); {
			case op == 0:
				s.Reset()
				clear(ref.Data)
				clear(has)
			case op < 8:
				s.Unset(i, j)
				ref.Set(i, j, 0)
				has[i*n+j] = false
			default:
				v := float64(rng.Intn(5)-2) / 2 // includes stored zeros
				s.Set(i, j, v)
				ref.Set(i, j, v)
				has[i*n+j] = true
			}
			fresh := NewSparse(n)
			for a := 0; a < n; a++ {
				for b := 0; b < n; b++ {
					v, ok := s.Lookup(a, b)
					if got, want := s.At(a, b), ref.At(a, b); got != want || v != want || ok != has[a*n+b] {
						t.Fatalf("seed %d step %d: cell (%d,%d): At %v Lookup (%v,%v), want %v stored=%v",
							seed, step, a, b, got, v, ok, want, has[a*n+b])
					}
					if has[a*n+b] {
						fresh.Set(a, b, ref.At(a, b))
					}
				}
			}
			if !reflect.DeepEqual(s, fresh) {
				t.Fatalf("seed %d step %d: sparse differs structurally from a fresh build of the same cells", seed, step)
			}
		}
	}
}

// TestSymMatchesDense writes random cells of a Sym and of a dense
// symmetric reference (each write sets the cell and its mirror) and
// compares every cell, both orientations, plus Row's view of the stored
// part and the triangle's size.
func TestSymMatchesDense(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(24)
		s := NewSym(n)
		ref := New(n, n)
		if s.N() != n || len(s.Data) != n*(n+1)/2 {
			t.Fatalf("seed %d: NewSym(%d) has N %d and %d values", seed, n, s.N(), len(s.Data))
		}
		for step := 0; step < 200 && n > 0; step++ {
			i, j := rng.Intn(n), rng.Intn(n)
			v := rng.NormFloat64()
			s.Set(i, j, v)
			ref.Set(i, j, v)
			ref.Set(j, i, v)
		}
		for a := 0; a < n; a++ {
			row := s.Row(a)
			if len(row) != n-a {
				t.Fatalf("seed %d: Row(%d) holds %d cells, want %d", seed, a, len(row), n-a)
			}
			for b := 0; b < n; b++ {
				if got, want := s.At(a, b), ref.At(a, b); got != want {
					t.Fatalf("seed %d: cell (%d,%d) = %v, want %v", seed, a, b, got, want)
				}
				if b >= a && row[b-a] != ref.At(a, b) {
					t.Fatalf("seed %d: Row(%d)[%d] = %v, want %v", seed, a, b-a, row[b-a], ref.At(a, b))
				}
			}
		}
	}
}
