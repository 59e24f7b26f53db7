// Package par is the pipeline's one worker pool. Every fan-out — metros in
// a batch, the speculative traceroute window, ALS row solves, route
// propagations, candidate scans and evaluation sweeps — runs its
// independent iterations through For and writes index-slotted outputs, so
// results never depend on the pool width.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Width is the number of goroutines For(n, workers, ...) runs:
// min(workers, n), with workers <= 0 meaning GOMAXPROCS.
func Width(n, workers int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return max(0, min(workers, n))
}

// For calls body(worker, i) once for each i in [0, n) on Width(n, workers)
// goroutines, the calling one included, and returns after every call has
// returned. Indices are handed out dynamically in ascending order; worker
// lies in [0, Width(n, workers)) and names the goroutine making the call.
// At width 1 the calls run in order on the calling goroutine.
func For(n, workers int, body func(worker, i int)) {
	w := Width(n, workers)
	if w <= 1 {
		for i := 0; i < n; i++ {
			body(0, i)
		}
		return
	}
	var next atomic.Int64
	run := func(worker int) {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			body(worker, i)
		}
	}
	var wg sync.WaitGroup
	wg.Add(w - 1)
	for worker := 1; worker < w; worker++ {
		go func() {
			defer wg.Done()
			run(worker)
		}()
	}
	run(0)
	wg.Wait()
}
