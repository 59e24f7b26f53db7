package metascritic

// Run is the package's single run entry point (the pre-v1
// RunMetro/RunMetroContext wrappers are gone); every error Run returns
// wraps one of the sentinel errors of errors.go. Rescore in stream.go is
// the incremental counterpart for evolved worlds.

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"metascritic/internal/als"
	"metascritic/internal/asgraph"
	"metascritic/internal/obs"
	"metascritic/internal/probe"
	"metascritic/internal/rank"
)

// abortErr wraps a context abort so it matches both ErrCanceled and the
// context's own cause (context.Canceled / context.DeadlineExceeded).
func abortErr(metro int, phase string, cause error) error {
	return fmt.Errorf("metascritic: metro %d: %s aborted: %w: %w", metro, phase, ErrCanceled, cause)
}

// Run executes the full metAScritic loop (Fig. 2) on one metro. The config
// is validated up front; ctx cancellation is checked between measurements
// and between estimation rounds, so an abort takes effect promptly and
// returns an error wrapping ErrCanceled (and the context's cause). A
// cancelled run that got past validation returns its partial *Result
// alongside the error: the phases that did run keep their wall-clock and
// allocation telemetry, so batch statistics can attribute the cost of
// aborted work instead of dropping it.
//
// Determinism: a run is a pure function of (world, store contents at
// entry, metro, cfg) — traceroute simulation is hash-based and the only
// RNG is seeded from cfg.Seed — so equal inputs give byte-identical
// Results regardless of what other goroutines do to *other* pipelines.
// cfg.MeasureWorkers is explicitly outside that function: batches of
// traceroutes are simulated speculatively in parallel but committed in
// batch order (measure.go), so every field of Result except the Timings
// telemetry is byte-identical across worker counts.
func (p *Pipeline) Run(ctx context.Context, metro int, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("metascritic: metro %d: %w", metro, err)
	}
	g := p.World.G
	if metro < 0 || metro >= len(g.Metros) {
		return nil, fmt.Errorf("metascritic: %w: metro index %d out of range [0,%d)", ErrInvalidConfig, metro, len(g.Metros))
	}
	if err := ctx.Err(); err != nil {
		return nil, abortErr(metro, "run", err)
	}
	// Dense-metro pruning: Internet-scale head metros colocate thousands
	// of ASes, and everything below is O(members²). Metros at or under
	// the cap pass through untouched (the slice is returned as-is), so
	// legacy-scale results stay byte-identical.
	members := probe.TopMembers(g, g.Metros[metro].Members, cfg.MaxMetroMembers)
	rng := rand.New(rand.NewSource(cfg.Seed))

	sel := probe.NewSelector(g, metro, members, p.VPs(), p.Hitlist)
	boot := cfg.BootstrapPerStrategy
	if cfg.Priors != nil {
		sel.InitPriors(*cfg.Priors, cfg.PriorWeight)
		boot = (boot + 4) / 5 // transferred priors need far fewer samples
	}

	res := &Result{Metro: metro, Members: members}

	// Phase-attribution counters: heap allocations are sampled at the
	// same boundaries as the wall-clock phases (5 ReadMemStats calls per
	// run — negligible next to a phase). See PhaseTimings.Allocs for the
	// process-global caveat.
	var memStats runtime.MemStats
	mallocs := func() uint64 {
		runtime.ReadMemStats(&memStats)
		return memStats.Mallocs
	}
	allocMark := mallocs()
	allocPhase := func(counter *uint64) {
		now := mallocs()
		*counter += now - allocMark
		allocMark = now
	}

	// Working estimate; delta-refreshed in place as measurements land
	// (obs.Store.Refresh re-derives only the pairs the new traces
	// touched, byte-identical to a full rebuild).
	estStart := time.Now()
	est := p.Store.Estimate(metro, members, cfg.NegPolicy)
	res.Timings.Estimate += time.Since(estStart)
	refresh := func() {
		t0 := time.Now()
		p.Store.Refresh(est)
		res.Timings.Estimate += time.Since(t0)
	}
	features := BuildFeatures(g, members)
	budget := cfg.MaxMeasurements
	workers := measureWorkers(cfg)
	mstats := &res.Timings.Measure
	mstats.Workers = workers

	// Bootstrap phase (§3.3.2): calibrate per-strategy success rates with
	// a few random measurements per strategy before targeted selection.
	phaseStart := time.Now()
	if boot > 0 && budget <= 0 && cfg.StrictBudget {
		return nil, fmt.Errorf("metascritic: metro %d: %w: budget %d cannot cover the %d-per-strategy bootstrap calibration",
			metro, ErrBudgetExhausted, cfg.MaxMeasurements, boot)
	}
	if boot > 0 && budget > 0 {
		plan := sel.BootstrapPlan(boot, 600, rng)
		p.runPlan(ctx, workers, plan, &budget, mstats, func(m probe.Measurement, findings []obs.Finding) {
			res.Measurements++
			res.BootstrapMeasurements++
			informative := false
			want := asgraph.MakePair(m.LinkI, m.LinkJ)
			for _, f := range findings {
				if f.Pair == want {
					informative = true
					break
				}
			}
			sel.Report(m, informative)
			// Recorded as exploration-like: Fig. 4 calibration excludes
			// bootstrap probes since they are not P-selected.
			res.Calibrations = append(res.Calibrations, Calibration{
				P: m.P, Informative: informative, Exploration: true,
				VP: m.VP, Target: m.Target, LinkI: m.LinkI, LinkJ: m.LinkJ, Strat: m.Strat,
			})
		})
		refresh()
		if cfg.StrictBudget && budget <= 0 && res.BootstrapMeasurements < len(plan) && ctx.Err() == nil {
			return nil, fmt.Errorf("metascritic: metro %d: %w: bootstrap calibration truncated at %d of %d planned measurements",
				metro, ErrBudgetExhausted, res.BootstrapMeasurements, len(plan))
		}
	}
	res.Timings.Bootstrap = time.Since(phaseStart)
	allocPhase(&res.Timings.Allocs.Bootstrap)
	if err := ctx.Err(); err != nil {
		return res, abortErr(metro, "bootstrap", err)
	}

	// target/cur are the topUp closure's round-loop buffers, hoisted so
	// the dozens of topUp rounds across the whole rank loop share two
	// allocations (profile-guided; see DESIGN.md §7).
	target := make([]int, len(members))
	cur := make([]int, len(members))
	var fillBuf []int
	topUp := func(need []int) int {
		before := est.Mask.Count()
		// Translate "additional entries" into absolute per-row targets so
		// any measurement that fills a needy row counts, regardless of
		// which entry we were aiming at. Targets are overshot by the
		// holdout size: the rank loop removes HoldoutPerRow entries per
		// row when scoring, so rows topped to exactly r would drop back
		// below it.
		for i := range need {
			target[i] = 0
			if need[i] > 0 {
				target[i] = est.Mask.RowCount(i) + need[i] + cfg.Rank.HoldoutPerRow
			}
		}
		stale := 0
		for round := 0; round < 16 && budget > 0 && ctx.Err() == nil; round++ {
			for i := range cur {
				cur[i] = 0
			}
			remaining := 0
			for i := range target {
				if d := target[i] - est.Mask.RowCount(i); d > 0 {
					cur[i] = d
					remaining += d
				}
			}
			if remaining == 0 {
				break
			}
			size := cfg.BatchSize
			if size > budget {
				size = budget
			}
			countBefore := est.Mask.Count()
			fillBuf = est.AppendRowFill(fillBuf)
			batch := sel.SelectBatch(size, cfg.Epsilon, fillBuf, cur, est.Mask.Has, rng)
			if len(batch) == 0 {
				break
			}
			p.runPlan(ctx, workers, batch, &budget, mstats, func(m probe.Measurement, findings []obs.Finding) {
				res.Measurements++
				informative, foundLink, foundNon := false, false, false
				want := asgraph.MakePair(m.LinkI, m.LinkJ)
				for _, f := range findings {
					if f.Pair == want {
						informative = true
						if f.Direct {
							foundLink = true
						} else {
							foundNon = true
						}
					}
				}
				sel.Report(m, informative)
				res.Calibrations = append(res.Calibrations, Calibration{
					P: m.P, Informative: informative,
					FoundLink: foundLink, FoundNon: foundNon,
					Exploration: m.Exploration,
					VP:          m.VP, Target: m.Target,
					LinkI: m.LinkI, LinkJ: m.LinkJ, Strat: m.Strat,
				})
			})
			refresh()
			if est.Mask.Count() == countBefore {
				// A whole batch without a single new entry: give the
				// elusive rows one more chance, then stop (the paper's
				// "limit of successive traceroutes that fail").
				stale++
				if stale >= 2 {
					break
				}
			} else {
				stale = 0
			}
		}
		return (est.Mask.Count() - before) / 2
	}

	// Rank estimation with integrated targeted measurement (§3.2 + §3.3).
	phaseStart = time.Now()
	rcfg := cfg.Rank
	rcfg.Seed = cfg.Seed
	rcfg.Stop = func() bool { return ctx.Err() != nil }
	rres := rank.Estimate(est.E, est.Mask, features, topUp, rcfg)
	res.Rank = rres.Rank
	res.RankHistory = rres.History
	res.Estimate = est
	res.StrategyRates = sel.StrategyRates()
	// Callers keep Results (a batch, a benchmark's passes), so drop the
	// append growth slack of the per-measurement record.
	if len(res.Calibrations) < cap(res.Calibrations) {
		res.Calibrations = append(make([]Calibration, 0, len(res.Calibrations)), res.Calibrations...)
	}
	res.Timings.RankLoop = time.Since(phaseStart)
	allocPhase(&res.Timings.Allocs.RankLoop)
	if err := ctx.Err(); err != nil {
		return res, abortErr(metro, "rank estimation", err)
	}

	// Final completion at the estimated rank. The featureless/featured
	// problem pair is built once and shared across the tune grid, the
	// final ratings and the λ-search holdout below (holdouts are overlay
	// deltas, so the problems stay valid throughout).
	phaseStart = time.Now()
	opts := als.Options{
		Rank:          rres.Rank,
		Lambda:        rcfg.Lambda,
		FeatureWeight: rcfg.FeatureWeight,
		Iterations:    rcfg.Iterations + 5,
		Seed:          cfg.Seed,
	}
	probNoF := als.NewProblem(est.E, est.Mask, nil)
	var probF *als.Problem
	if features != nil && features.Cols > 0 {
		probF = als.NewProblem(est.E, est.Mask, features)
	}
	if cfg.Tune {
		t := als.TuneWith(probNoF, probF, est.E, est.Mask, rres.Rank, rng)
		opts.Lambda = t.Lambda
		opts.FeatureWeight = t.FeatureWeight
	}
	res.Lambda = opts.Lambda
	res.FeatureWeight = opts.FeatureWeight
	prob := probNoF
	if opts.FeatureWeight > 0 && probF != nil {
		prob = probF
	}
	res.Ratings, res.Factors = prob.CompleteFactors(opts, nil, nil)
	res.Timings.Completion = time.Since(phaseStart)
	allocPhase(&res.Timings.Allocs.Completion)
	if err := ctx.Err(); err != nil {
		return res, abortErr(metro, "completion", err)
	}

	// λ search: hold out 20% of observed entries, score the completion on
	// them, pick the F-maximizing threshold (§3.1).
	phaseStart = time.Now()
	res.Threshold = p.pickThreshold(est, prob, opts, rng)
	res.Timings.Threshold = time.Since(phaseStart)
	allocPhase(&res.Timings.Allocs.Threshold)
	return res, nil
}
