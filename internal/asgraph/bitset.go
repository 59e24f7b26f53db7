package asgraph

import "math/bits"

// Bitset is a multi-word bitset over small non-negative integers (metro,
// IXP indices). The zero value is an empty set; Set grows the word slice
// on demand. Word layout is little-endian: bit i lives in word i/64.
type Bitset []uint64

// BitsetWords returns the number of words needed for values in [0, n).
func BitsetWords(n int) int { return (n + 63) / 64 }

// Set sets bit i, growing the set if needed.
func (b *Bitset) Set(i int) {
	w := i >> 6
	for len(*b) <= w {
		*b = append(*b, 0)
	}
	(*b)[w] |= 1 << uint(i&63)
}

// Has reports whether bit i is set.
func (b Bitset) Has(i int) bool {
	w := i >> 6
	return w < len(b) && b[w]&(1<<uint(i&63)) != 0
}

// Intersects reports whether b and o share any set bit.
func (b Bitset) Intersects(o Bitset) bool {
	n := len(b)
	if len(o) < n {
		n = len(o)
	}
	for i := 0; i < n; i++ {
		if b[i]&o[i] != 0 {
			return true
		}
	}
	return false
}

// FirstCommon returns the smallest value set in both b and o, or -1.
func (b Bitset) FirstCommon(o Bitset) int {
	n := len(b)
	if len(o) < n {
		n = len(o)
	}
	for i := 0; i < n; i++ {
		if w := b[i] & o[i]; w != 0 {
			return i<<6 + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// AppendCommon appends the sorted values set in both b and o to dst and
// returns it.
func (b Bitset) AppendCommon(o Bitset, dst []int) []int {
	n := len(b)
	if len(o) < n {
		n = len(o)
	}
	for i := 0; i < n; i++ {
		w := b[i] & o[i]
		for w != 0 {
			dst = append(dst, i<<6+bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
	return dst
}

// CommonCount returns the number of values set in both b and o
// (popcount of the intersection).
func (b Bitset) CommonCount(o Bitset) int {
	n := len(b)
	if len(o) < n {
		n = len(o)
	}
	c := 0
	for i := 0; i < n; i++ {
		c += bits.OnesCount64(b[i] & o[i])
	}
	return c
}
