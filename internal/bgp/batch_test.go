package bgp

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// TestRoutesToAllMatchesSerial checks the batch API returns exactly what a
// serial RoutesTo loop would, in input order, with duplicates sharing one
// cached view.
func TestRoutesToAllMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	top := randomTopology(rng, 200)
	dests := []int{3, 50, 3, 120, 50, 7} // duplicates on purpose

	serial := NewRouteCache(top)
	want := make([]Routes, len(dests))
	for i, d := range dests {
		want[i] = serial.RoutesTo(d)
	}

	batch := NewRouteCache(top)
	got, err := batch.RoutesToAll(context.Background(), dests, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(dests) {
		t.Fatalf("got %d views, want %d", len(got), len(dests))
	}
	for i := range dests {
		for a := 0; a < top.N(); a++ {
			if got[i].At(a) != want[i].At(a) {
				t.Fatalf("dest %d AS %d: batch %+v, serial %+v", dests[i], a, got[i].At(a), want[i].At(a))
			}
		}
	}
	// Duplicate destinations share one view.
	if &got[0].class[0] != &got[2].class[0] {
		t.Fatalf("duplicate destinations should share one cached view")
	}
	// Distinct destinations each computed exactly once.
	if got := batch.Computed(); got != 4 {
		t.Fatalf("Computed = %d, want 4", got)
	}
}

// TestRoutesToAllConcurrent hammers one cache with overlapping destination
// sets from many goroutines — run under -race (make check) this pins
// the shard locking and pooled scratch isolation.
func TestRoutesToAllConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	top := randomTopology(rng, 300)
	cache := NewRouteCache(top)

	// Reference results from an independent serial cache.
	serial := NewRouteCache(top)

	const callers = 8
	var start, done sync.WaitGroup
	start.Add(1)
	errs := make(chan error, callers)
	for w := 0; w < callers; w++ {
		done.Add(1)
		go func(w int) {
			defer done.Done()
			// Overlapping windows: caller w sweeps [w*10, w*10+80).
			dests := make([]int, 80)
			for i := range dests {
				dests[i] = (w*10 + i) % top.N()
			}
			start.Wait()
			got, err := cache.RoutesToAll(context.Background(), dests, 4)
			if err != nil {
				errs <- err
				return
			}
			for i, d := range dests {
				want := serial.RoutesTo(d)
				for a := 0; a < top.N(); a++ {
					if got[i].At(a) != want.At(a) {
						t.Errorf("caller %d dest %d AS %d: %+v != %+v", w, d, a, got[i].At(a), want.At(a))
						return
					}
				}
			}
		}(w)
	}
	start.Done()
	done.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Every destination in the union was computed exactly once despite the
	// overlap (singleflight across workers and callers).
	union := map[int]struct{}{}
	for w := 0; w < callers; w++ {
		for i := 0; i < 80; i++ {
			union[(w*10+i)%top.N()] = struct{}{}
		}
	}
	if got := cache.Computed(); got != int64(len(union)) {
		t.Fatalf("Computed = %d, want %d (one run per distinct destination)", got, len(union))
	}
}

// TestWarmCancellation checks a cancelled Warm still reports the missing
// count and leaves the cache consistent (claimed flights complete).
func TestWarmCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	top := randomTopology(rng, 400)
	cache := NewRouteCache(top)

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the fan-out even starts
	dests := []int{1, 2, 3, 4, 5}
	if got := cache.Warm(ctx, dests, 2); got != len(dests) {
		t.Fatalf("Warm returned %d, want %d (missing count, even when cancelled)", got, len(dests))
	}
	// A later uncancelled lookup must still work and find a consistent cache.
	r := cache.RoutesTo(1)
	if r.Len() != top.N() {
		t.Fatalf("post-cancel lookup broken: %d ASes", r.Len())
	}

	// Cancellation mid-flight: start a slow warm and cancel shortly after.
	big := make([]int, top.N())
	for i := range big {
		big[i] = i
	}
	ctx2, cancel2 := context.WithCancel(context.Background())
	go func() {
		time.Sleep(time.Millisecond)
		cancel2()
	}()
	cache.Warm(ctx2, big, 2)
	<-ctx2.Done()
	if _, err := cache.RoutesToAll(ctx2, big[:10], 2); err == nil {
		t.Fatalf("RoutesToAll on a cancelled context should return the context error")
	}
}

// TestWarmCountsMissingOnly checks Warm skips destinations already cached
// and dedups the input.
func TestWarmCountsMissingOnly(t *testing.T) {
	top := chainTopology()
	cache := NewRouteCache(top)
	cache.RoutesTo(5)
	got := cache.Warm(context.Background(), []int{5, 6, 6, 0}, 0)
	if got != 2 {
		t.Fatalf("Warm = %d, want 2 (dest 5 cached, dest 6 duplicated)", got)
	}
	if cache.Computed() != 3 {
		t.Fatalf("Computed = %d, want 3", cache.Computed())
	}
}
