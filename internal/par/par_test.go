package par

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestForVisitsEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 7, 1000} {
		for _, width := range []int{-1, 0, 1, 2, n + 3} {
			counts := make([]atomic.Int32, n)
			limit := Width(n, width)
			var bad atomic.Int32
			For(n, width, func(worker, i int) {
				if worker < 0 || worker >= limit {
					bad.Add(1)
				}
				counts[i].Add(1)
			})
			if bad.Load() != 0 {
				t.Errorf("n=%d width=%d: %d calls with worker outside [0, %d)", n, width, bad.Load(), limit)
			}
			for i := range counts {
				if c := counts[i].Load(); c != 1 {
					t.Fatalf("n=%d width=%d: index %d visited %d times", n, width, i, c)
				}
			}
		}
	}
}

func TestWidth(t *testing.T) {
	for _, c := range []struct{ n, workers, want int }{
		{0, 4, 0}, {5, 1, 1}, {5, 2, 2}, {5, 9, 5}, {3, -1, Width(3, 0)},
	} {
		if got := Width(c.n, c.workers); got != c.want {
			t.Errorf("Width(%d, %d) = %d, want %d", c.n, c.workers, got, c.want)
		}
	}
	if w := Width(1<<20, 0); w < 1 {
		t.Errorf("Width(1<<20, 0) = %d, want GOMAXPROCS >= 1", w)
	}
}

func TestForSerialAtWidthOne(t *testing.T) {
	var got []int
	workers := map[int]bool{}
	For(50, 1, func(worker, i int) {
		// No locking: at width 1 every call runs on the calling goroutine,
		// so the race detector flags any concurrent call.
		got = append(got, i)
		workers[worker] = true
	})
	for i, v := range got {
		if v != i {
			t.Fatalf("call %d got index %d, want ascending order", i, v)
		}
	}
	if len(got) != 50 || len(workers) != 1 || !workers[0] {
		t.Fatalf("got %d calls on workers %v, want 50 on worker 0", len(got), workers)
	}
}

func TestForZeroCallsNothing(t *testing.T) {
	for _, width := range []int{-1, 0, 1, 4} {
		For(0, width, func(int, int) { t.Fatalf("width %d: body called for n = 0", width) })
	}
}

func TestForWaitsForEveryCall(t *testing.T) {
	var mu sync.Mutex
	done := 0
	For(64, 4, func(_, i int) {
		for k := 0; k < 1000*(i%3); k++ {
			_ = k * k
		}
		mu.Lock()
		done++
		mu.Unlock()
	})
	if done != 64 {
		t.Fatalf("For returned after %d of 64 calls", done)
	}
}
