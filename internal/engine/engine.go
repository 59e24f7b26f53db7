// Package engine schedules concurrent metAScritic metro runs over one
// shared world: the par.For worker pool executes metros in parallel, a
// thread-safe prior store streams learned strategy success rates from
// finished metros into later ones (Appx. D.6's hierarchical
// initialization, ~5x fewer bootstrap measurements), per-metro progress
// events flow on a caller-supplied channel, and context cancellation
// aborts the whole batch promptly. It is the scheduling seam the
// production-scale roadmap items (sharding, batching, serving) build on.
//
// Determinism contract: every metro runs over an isolated snapshot of the
// pipeline's observation store (an O(1) copy-on-write handle since PR 4 —
// workers snapshot concurrently without copying the accumulated evidence,
// and each run lazily copies only what it mutates) with a seed derived as
// MetroSeed(base,
// metro), so with SharePriors off a batch's per-metro results are
// byte-identical to sequential runs — RunAll(ctx, cfg).Results[m] equals
// p.Snapshot().Run(ctx, m, cfgWithSeed) — regardless of
// worker count or scheduling order. With SharePriors on, which priors a
// metro sees depends on completion order, so results may vary between
// runs (at Workers=1 the scheduling order is fixed and runs are again
// deterministic).
package engine

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"metascritic"
	"metascritic/internal/par"
	"metascritic/internal/sysmem"
)

// MetroSeed derives the RNG seed metro runs use from a base seed: widely
// separated streams per metro, so concurrent metros never duplicate RNG
// sequences the way sharing DefaultConfig().Seed across metros would.
func MetroSeed(base int64, metro int) int64 {
	return base + int64(metro)*1_000_000_000
}

// Config configures one RunAll batch.
type Config struct {
	// Base is the per-metro pipeline configuration. Base.Seed is the
	// batch's base seed; each metro runs with MetroSeed(Base.Seed, metro).
	// Base.Priors must be nil when SharePriors is set (the engine manages
	// priors itself).
	Base metascritic.Config
	// Metros lists the metro indices to run. Nil means the world's
	// primary (study) metros, in ascending index order.
	Metros []int
	// Workers bounds the metro pool (par.For); 0 means GOMAXPROCS. The pool
	// never exceeds the number of metros.
	Workers int
	// SharePriors streams learned StrategyRates from finished metros into
	// later ones via the engine's prior store. This trades the batch-level
	// determinism guarantee (see the package comment) for ~5x cheaper
	// bootstrap on every metro that starts after the first finishes.
	SharePriors bool
	// Events, when non-nil, receives per-metro progress notifications.
	// The engine never closes the channel; sends are abandoned when the
	// batch is cancelled, so consumers should drain until RunAll returns.
	Events chan<- Event
}

// MultiResult is the outcome of a RunAll batch.
type MultiResult struct {
	// Metros is the batch's metro set in scheduling order.
	Metros []int
	// Results maps metro index to its result.
	Results map[int]*metascritic.Result
	// Stats aggregates measurement counts, per-phase wall-clock and
	// worker utilization over the batch.
	Stats RunStats
}

// Result returns the result for a metro (nil if it was not in the batch).
func (m *MultiResult) Result(metro int) *metascritic.Result { return m.Results[metro] }

// Engine runs metro batches over one pipeline. The zero value is not
// usable; construct with New. An Engine is safe for concurrent use, and
// its prior store persists across batches: a second RunAll (or
// Run) starts with everything earlier runs learned.
type Engine struct {
	pipe   *metascritic.Pipeline
	priors *PriorStore
}

// New builds an engine over a pipeline (world + seeded public
// measurements). The pipeline's store is treated as the batch baseline:
// RunAll snapshots it per metro and never mutates it.
func New(p *metascritic.Pipeline) *Engine {
	return &Engine{pipe: p, priors: NewPriorStore()}
}

// Priors exposes the engine's cross-metro prior store (for inspection
// and for pre-seeding from an earlier campaign).
func (e *Engine) Priors() *PriorStore { return e.priors }

// Pipeline returns the underlying pipeline.
func (e *Engine) Pipeline() *metascritic.Pipeline { return e.pipe }

// Run runs a single metro over an isolated snapshot of the pipeline's
// store, with the engine's seed derivation and prior store applied:
// pooled priors (if any) seed the run, and the learned rates are
// published back. cfg.Seed is treated as the base seed, exactly as in
// RunAll.
func (e *Engine) Run(ctx context.Context, metro int, cfg metascritic.Config) (*metascritic.Result, error) {
	if cfg.Priors == nil {
		if pooled, _ := e.priors.Pooled(); pooled != nil {
			cfg.Priors = pooled
		}
	}
	cfg.Seed = MetroSeed(cfg.Seed, metro)
	res, err := e.pipe.Snapshot().Run(ctx, metro, cfg)
	if err != nil {
		// A cancelled run's partial result (with its phase telemetry) is
		// passed through alongside the error; priors are only learned
		// from completed runs.
		return res, fmt.Errorf("engine: %w", err)
	}
	e.priors.Add(res.StrategyRates)
	return res, nil
}

// validate checks a batch config against the engine's world and returns
// the metros it runs: the base config must be valid, Base.Priors must be
// nil under SharePriors, and the metro set must be non-empty, in range
// and free of duplicates. RunAll and RunManager.Submit both call it, so a
// config Submit accepts is one RunAll accepts.
func (e *Engine) validate(cfg Config) ([]int, error) {
	if err := cfg.Base.Validate(); err != nil {
		return nil, err
	}
	if cfg.SharePriors && cfg.Base.Priors != nil {
		return nil, fmt.Errorf("%w: Base.Priors must be nil when SharePriors is set", metascritic.ErrInvalidConfig)
	}
	metros := cfg.Metros
	if metros == nil {
		metros = append([]int(nil), e.pipe.World.PrimaryMetros()...)
		sort.Ints(metros)
	}
	if len(metros) == 0 {
		return nil, fmt.Errorf("%w: no metros to run", metascritic.ErrInvalidConfig)
	}
	n := len(e.pipe.World.G.Metros)
	seen := make(map[int]bool, len(metros))
	for _, m := range metros {
		if m < 0 || m >= n {
			return nil, fmt.Errorf("%w: metro index %d out of range [0,%d)", metascritic.ErrInvalidConfig, m, n)
		}
		if seen[m] {
			return nil, fmt.Errorf("%w: metro %d listed twice", metascritic.ErrInvalidConfig, m)
		}
		seen[m] = true
	}
	return metros, nil
}

// RunAll executes the configured metros on a worker pool and returns
// their results plus aggregated statistics. The first per-metro error
// cancels the rest of the batch and is returned (wrapped); when ctx is
// cancelled mid-batch, RunAll returns an error wrapping ctx.Err()
// promptly, without waiting for unstarted metros. Alongside a non-nil
// error the MultiResult is still returned: it carries the completed
// metros' results plus the partial phase telemetry of aborted runs
// (MetroStats.Aborted), so a cancelled batch's cost is attributable
// instead of lost.
func (e *Engine) RunAll(ctx context.Context, cfg Config) (*MultiResult, error) {
	metros, err := e.validate(cfg)
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	workers := par.Width(len(metros), cfg.Workers)

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	results := make([]*metascritic.Result, len(metros))
	stats := make([]MetroStats, len(metros))
	ran := make([]bool, len(metros)) // stats[i] is meaningful
	var (
		errMu    sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
			cancel()
		}
		errMu.Unlock()
	}

	start := time.Now()
	par.For(len(metros), workers, func(worker, idx int) {
		if runCtx.Err() != nil {
			return // batch aborted: leave the metro unstarted
		}
		metro := metros[idx]
		name := e.pipe.World.G.Metros[metro].Name
		mcfg := cfg.Base
		mcfg.Seed = MetroSeed(cfg.Base.Seed, metro)
		if mcfg.MeasureWorkers == 0 && workers > 1 {
			// Metros already run concurrently here, so split the
			// machine between pool workers instead of letting every
			// metro's measurement fan-out claim all of GOMAXPROCS.
			// Results are invariant to the measurement worker count
			// (the pipeline's determinism contract), so this only
			// changes scheduling, never output.
			if mw := runtime.GOMAXPROCS(0) / workers; mw > 1 {
				mcfg.MeasureWorkers = mw
			} else {
				mcfg.MeasureWorkers = 1
			}
		}
		usedPriors, priorMetros := false, 0
		if cfg.SharePriors {
			if pooled, n := e.priors.Pooled(); pooled != nil {
				mcfg.Priors = pooled
				usedPriors, priorMetros = true, n
			}
		}
		e.emit(runCtx, cfg.Events, Event{
			Kind: MetroStarted, Metro: metro, Name: name,
			Worker: worker, Time: time.Now(), UsedPriors: usedPriors,
		})
		t0 := time.Now()
		res, err := e.pipe.Snapshot().Run(runCtx, metro, mcfg)
		var ms MetroStats
		if res != nil {
			ms = MetroStats{
				Metro: metro, Name: name, Seed: mcfg.Seed, Worker: worker,
				Wall:                  time.Since(t0),
				Measurements:          res.Measurements,
				BootstrapMeasurements: res.BootstrapMeasurements,
				UsedPriors:            usedPriors,
				PriorMetros:           priorMetros,
				Phases:                res.Timings,
			}
		}
		if err != nil {
			if res != nil {
				// A cancelled run returns its partial result: keep
				// the telemetry of the phases that did run, so the
				// batch's phase attribution covers aborted work.
				ms.Aborted = true
				stats[idx], ran[idx] = ms, true
			}
			fail(fmt.Errorf("engine: metro %s (%d): %w", name, metro, err))
			e.emit(runCtx, cfg.Events, Event{
				Kind: MetroFailed, Metro: metro, Name: name,
				Worker: worker, Time: time.Now(), Err: err,
			})
			return
		}
		results[idx] = res
		stats[idx] = ms
		ran[idx] = true
		if cfg.SharePriors {
			e.priors.Add(res.StrategyRates)
		}
		e.emit(runCtx, cfg.Events, Event{
			Kind: MetroFinished, Metro: metro, Name: name,
			Worker: worker, Time: time.Now(), UsedPriors: usedPriors,
			Stats: &ms,
		})
	})

	err = firstErr // par.For has returned: every fail call happened before
	out := &MultiResult{
		Metros:  append([]int(nil), metros...),
		Results: make(map[int]*metascritic.Result, len(metros)),
		Stats: RunStats{
			Workers:  workers,
			Wall:     time.Since(start),
			PerMetro: stats,
		},
	}
	for i, m := range metros {
		if !ran[i] {
			continue // never started (batch aborted first)
		}
		if results[i] != nil {
			out.Results[m] = results[i]
		}
		out.Stats.Busy += stats[i].Wall
		out.Stats.Measurements += stats[i].Measurements
		out.Stats.BootstrapMeasurements += stats[i].BootstrapMeasurements
		out.Stats.Phases.Add(stats[i].Phases)
	}
	// Snapshots share the baseline pipeline's traceroute engine and its
	// route cache, so this snapshot covers the whole batch.
	out.Stats.RouteCache = e.pipe.Engine.Cache.Stats()
	out.Stats.PeakRSSBytes = sysmem.PeakRSSBytes()
	if err != nil {
		return out, err
	}
	if cerr := ctx.Err(); cerr != nil {
		return out, fmt.Errorf("engine: %w", cerr)
	}
	return out, nil
}

// emit delivers a progress event, giving up when the batch is cancelled
// so an unread events channel can never wedge an abort.
func (e *Engine) emit(ctx context.Context, ch chan<- Event, ev Event) {
	if ch == nil {
		return
	}
	select {
	case ch <- ev:
	case <-ctx.Done():
	}
}
