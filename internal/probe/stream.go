package probe

import "math/rand"

// math/rand's default source is an additive lagged Fibonacci generator:
// its t-th output is output(t-607) + output(t-273), mod 2⁶⁴.
const (
	streamLag = 607
	streamTap = 273
	int63Mask = 1<<63 - 1
)

// Stream is a rand.Source64 whose values equal rand.NewSource(seed)'s, draw
// for draw, kept in a buffer the selector can scan. Seeding captures the
// first 607 outputs of rand.NewSource(seed) as the first block; each
// refill derives the next 607 in place from the recurrence, so the stream
// never copies math/rand's seeding table.
//
// Its point is skip: the selector replays thousands of RNG draws per
// exploit pick only to advance the stream, and nearly none of them is
// ever rejected by an Intn or Float64 bound. skip checks a whole run of
// draws against the run's lowest bound in one pass over the buffer, where
// a *rand.Rand pays one interface call per draw.
type Stream struct {
	vec [streamLag]uint64 // the current block of outputs
	pos int               // next output in vec; streamLag once it is spent
	rng *rand.Rand
}

// NewStream returns a stream seeded with seed.
func NewStream(seed int64) *Stream {
	s := &Stream{}
	s.Seed(seed)
	s.rng = rand.New(s)
	return s
}

// Rand returns the *rand.Rand that draws from the stream. Its methods
// return what rand.New(rand.NewSource(seed)) returns.
func (s *Stream) Rand() *rand.Rand { return s.rng }

// Seed restarts the stream at seed's first output.
func (s *Stream) Seed(seed int64) {
	src := rand.NewSource(seed).(rand.Source64)
	for k := range s.vec {
		s.vec[k] = src.Uint64()
	}
	s.pos = 0
}

// refill replaces the spent block with the next 607 outputs, in place:
// the output 273 back of the block's first 273 lies in the spent block,
// 334 places on; for the rest it is in the new block, already written. It
// returns the OR of bound - x over the new block's Int63 values x, whose
// top bit is set exactly when some value exceeds bound (see skip), so a
// skip over the whole block checks it as it is derived.
func (s *Stream) refill(bound uint64) uint64 {
	v := &s.vec
	var over uint64
	for k := 0; k < streamTap; k++ {
		x := v[k] + v[k+streamLag-streamTap]
		v[k] = x
		over |= bound - x&int63Mask
	}
	for k := streamTap; k < streamLag; k++ {
		x := v[k] + v[k-streamTap]
		v[k] = x
		over |= bound - x&int63Mask
	}
	s.pos = 0
	return over
}

// Uint64 returns the next output.
func (s *Stream) Uint64() uint64 {
	if s.pos == streamLag {
		s.refill(int63Mask)
	}
	x := s.vec[s.pos]
	s.pos++
	return x
}

// Int63 returns the next output without its top bit, as rand's source does.
func (s *Stream) Int63() int64 { return int64(s.Uint64() & int63Mask) }

// skip advances over up to n outputs, stopping before the first whose
// Int63 value exceeds bound, and returns how many it took: n, unless one
// did. A run of single-output draws whose own bounds are all at least
// bound therefore took one output each and was accepted by each.
func (s *Stream) skip(n int, bound uint64) int {
	for done := 0; done < n; {
		// A run that takes the whole next block is checked as the block
		// is derived.
		if s.pos == streamLag && s.refill(bound)>>63 == 0 && n-done >= streamLag {
			s.pos = streamLag
			done += streamLag
			continue
		}
		w := s.vec[s.pos:min(streamLag, s.pos+n-done)]
		// Both sides are below 2⁶³, so bound - x wraps to 2⁶³ or more
		// exactly when x exceeds bound.
		var over uint64
		for _, x := range w {
			over |= bound - x&int63Mask
		}
		if over>>63 != 0 {
			for k, x := range w {
				if x&int63Mask > bound {
					s.pos += k
					return done + k
				}
			}
		}
		s.pos += len(w)
		done += len(w)
	}
	return n
}

// floatBound is a bound under which Float64 takes an Int63 output in one
// draw: it redraws only outputs that round to 2⁶³, the lowest of which is
// 2⁶³ - 2⁹.
const floatBound = 1<<63 - 1<<10
