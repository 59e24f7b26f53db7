package metascritic

// Speculative measurement pipeline: the per-metro loop issues its selected
// traceroute batches through runPlan, which fans the (pure, hash-based)
// traceroute simulations of one batch out through par.For and
// then commits the resulting traces into the observation store, the
// selector statistics and the calibration log in the batch's original
// order. Because every mutation (obs.Store.AddTrace, probe.Selector.Report,
// Result.Calibrations, the budget counter) happens on the committing
// goroutine in batch order, a parallel run is byte-identical to the serial
// one — the workers only ever race on the pure simulation. Each committed
// AddTrace also appends the pairs it touched to the store's dirty log, so
// the post-batch estimate refresh (obs.Store.Refresh) re-derives exactly
// the delta this plan committed rather than rescanning all evidence.
//
// Budget under speculation: a batch may be larger than the remaining
// MaxMeasurements budget (the bootstrap plan is not clamped). The
// speculative window is capped at the remaining budget up front — the
// over-budget tail is never launched, never counted against the budget and
// never committed — and the committer re-checks the budget per item, so
// even a speculative trace that did run is discarded rather than committed
// once the budget is exhausted. Cancellation works the same way: workers
// stop claiming new traceroutes, the committer stops committing, and
// whatever speculative traces were in flight are dropped on the floor
// without touching the store.

import (
	"context"
	"runtime"
	"time"

	"metascritic/internal/obs"
	"metascritic/internal/par"
	"metascritic/internal/probe"
	"metascritic/internal/traceroute"
)

// MeasureStats counts the work done by the speculative measurement
// pipeline of one metro run. It is surfaced through Result.Timings and
// aggregated across metros by engine.RunStats. The counts are concurrency
// telemetry, not part of the determinism contract: Committed is identical
// between serial and parallel runs, the rest depends on the worker count.
type MeasureStats struct {
	// Workers is the resolved fan-out width (Config.MeasureWorkers, with 0
	// resolved to GOMAXPROCS).
	Workers int
	// Batches is the number of batches that went through the parallel
	// fan-out path (serial runs leave it 0).
	Batches int
	// Launched is the number of traceroutes actually started by fan-out
	// workers (committed + speculative traces later discarded).
	Launched int
	// Committed is the number of measurements committed in order into the
	// store/selector/calibration log. It equals Result.Measurements.
	Committed int
	// Discarded counts batch items that were not committed: the
	// over-budget tail of a speculative window (never launched) plus
	// launched speculative traces dropped by cancellation.
	Discarded int
	// PrefetchedRoutes is the number of distinct uncached destinations
	// warmed in the route cache ahead of fan-outs.
	PrefetchedRoutes int
	// Wall is the wall-clock spent inside runPlan (fan-out + commit).
	Wall time.Duration
}

// Merge folds another run's stats into s (summing counts, keeping the
// widest worker pool) — the engine's batch aggregation primitive.
func (s *MeasureStats) Merge(o MeasureStats) {
	if o.Workers > s.Workers {
		s.Workers = o.Workers
	}
	s.Batches += o.Batches
	s.Launched += o.Launched
	s.Committed += o.Committed
	s.Discarded += o.Discarded
	s.PrefetchedRoutes += o.PrefetchedRoutes
	s.Wall += o.Wall
}

// commitFunc consumes one committed measurement in batch order: the
// findings its trace produced have already been folded into the store.
type commitFunc func(m probe.Measurement, findings []obs.Finding)

// measureWorkers resolves the configured fan-out width.
func measureWorkers(cfg Config) int {
	if cfg.MeasureWorkers > 0 {
		return cfg.MeasureWorkers
	}
	return runtime.GOMAXPROCS(0)
}

// runPlan executes up to *budget measurements of batch, in order, stopping
// early on cancellation. With workers <= 1 it is the exact legacy serial
// loop: run one traceroute, ingest it, commit, repeat. With workers > 1 the
// traceroutes of the speculative window run concurrently while the
// committer ingests and commits them strictly in batch order, so the
// observable state mutations are identical to the serial path.
func (p *Pipeline) runPlan(ctx context.Context, workers int, batch []probe.Measurement, budget *int, st *MeasureStats, commit commitFunc) {
	if len(batch) == 0 || *budget <= 0 || ctx.Err() != nil {
		return
	}
	start := time.Now()
	defer func() { st.Wall += time.Since(start) }()

	// The serial loop stays although the fan-out below is equivalent at
	// one worker: campaign and serve runs resolve to one measurement
	// worker per metro on small hosts, and there the fan-out's per-batch
	// route prefetch, goroutine and per-item channels buy nothing. On a
	// 2-core host, deleting this branch measured 0-8% slower on
	// BenchmarkRunMetro/workers=1 (alternating pairs, median ~205 ms/op).
	if workers <= 1 {
		for _, m := range batch {
			if *budget <= 0 || ctx.Err() != nil {
				return
			}
			*budget--
			tr := p.Engine.RunTarget(m.VP.AS, m.VP.Metro, m.Target.AS, m.Target.Metro)
			st.Committed++
			st.Launched++
			commit(m, p.Store.AddTrace(tr))
		}
		return
	}

	// Speculative window: items beyond the remaining budget could never be
	// committed, so they are not launched — and not counted. The committer
	// below still guards the budget per item, so the invariant "no
	// uncommitted trace is ever counted or stored" holds even if the window
	// were wider.
	window := len(batch)
	if window > *budget {
		st.Discarded += window - *budget
		window = *budget
	}
	st.Batches++

	// Warm the route cache for the batch's distinct destinations with full
	// parallelism before the per-trace fan-out, so workers mostly hit the
	// cache instead of serializing on singleflight propagation.
	dests := make([]int, 0, window)
	for _, m := range batch[:window] {
		dests = append(dests, m.Target.AS)
	}
	st.PrefetchedRoutes += p.Engine.Cache.Warm(ctx, dests, workers)

	// done[i] closes once item i is settled: traced (ran[i]) or passed
	// over because ctx was cancelled first. Every index settles, so the
	// committer never waits on an item the pool skipped.
	traces := make([]traceroute.Trace, window)
	ran := make([]bool, window)
	done := make([]chan struct{}, window)
	for i := range done {
		done[i] = make(chan struct{})
	}
	fanned := make(chan struct{})
	go func() {
		defer close(fanned)
		par.For(window, workers, func(_, i int) {
			if ctx.Err() == nil {
				m := batch[i]
				traces[i] = p.Engine.RunTarget(m.VP.AS, m.VP.Metro, m.Target.AS, m.Target.Metro)
				ran[i] = true
			}
			close(done[i])
		})
	}()

	// Ordered commit: every store/selector/calibration mutation happens
	// here, on one goroutine, in batch order.
	committed := 0
	for i := 0; i < window; i++ {
		if *budget <= 0 || ctx.Err() != nil {
			break
		}
		<-done[i]
		if !ran[i] || ctx.Err() != nil {
			break
		}
		*budget--
		st.Committed++
		committed++
		commit(batch[i], p.Store.AddTrace(traces[i]))
	}
	<-fanned

	// Account for speculative traces that ran but were not committed
	// (cancellation landed mid-window).
	launched := 0
	for _, r := range ran {
		if r {
			launched++
		}
	}
	st.Launched += launched
	st.Discarded += launched - committed
}
