package metascritic

// Run and Rescore (stream.go) are one metro pass (Fig. 2) built from the
// three pieces below: the prologue startPass, the phase clock phaseClock
// and the completion tail finish. Rescore is Run without the measurement
// and rank-sweep steps. Every error either call returns wraps one of the
// sentinel errors of errors.go.

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"metascritic/internal/als"
	"metascritic/internal/mat"
	"metascritic/internal/obs"
	"metascritic/internal/probe"
	"metascritic/internal/rank"
)

// abortErr wraps a context abort so it matches both ErrCanceled and the
// context's own cause (context.Canceled / context.DeadlineExceeded).
func abortErr(metro int, phase string, cause error) error {
	return fmt.Errorf("metascritic: metro %d: %s aborted: %w: %w", metro, phase, ErrCanceled, cause)
}

// phaseClock attributes a metro pass's wall-clock and heap allocations
// (runtime.ReadMemStats deltas; see PhaseTimings.Allocs) to its phases.
// It starts at call entry and each mark closes the phase running since
// the previous one, so the phases tile the call.
type phaseClock struct {
	last    time.Time
	mallocs uint64
	mem     runtime.MemStats
}

func (c *phaseClock) start() {
	c.last = time.Now()
	runtime.ReadMemStats(&c.mem)
	c.mallocs = c.mem.Mallocs
}

// mark adds the wall-clock and allocations since the previous mark to
// *wall and *allocs.
func (c *phaseClock) mark(wall *time.Duration, allocs *uint64) {
	now := time.Now()
	*wall += now.Sub(c.last)
	runtime.ReadMemStats(&c.mem)
	*allocs += c.mem.Mallocs - c.mallocs
	c.last, c.mallocs = now, c.mem.Mallocs
}

// span adds f's wall-clock to *d without closing the current phase: a
// sub-span such as PhaseTimings.Estimate.
func (c *phaseClock) span(d *time.Duration, f func()) {
	t0 := time.Now()
	f()
	*d += time.Since(t0)
}

// metroPass is what the prologue derived, and the Result to fill in.
type metroPass struct {
	cfg      Config
	res      *Result
	est      *obs.Estimate
	features *mat.Matrix
	stream   *probe.Stream // the pass's one RNG: rand.NewSource(cfg.Seed)'s values
	rng      *rand.Rand    // stream.Rand()
	clock    phaseClock
}

// startPass is the prologue: it starts the clock, validates cfg and the
// metro, polls ctx once (op names the call in the abort error), prunes the
// members, seeds the RNG and builds the estimate and features.
func (p *Pipeline) startPass(ctx context.Context, metro int, cfg Config, op string) (*metroPass, error) {
	ps := &metroPass{cfg: cfg}
	ps.clock.start()
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("metascritic: metro %d: %w", metro, err)
	}
	g := p.World.G
	if metro < 0 || metro >= len(g.Metros) {
		return nil, fmt.Errorf("metascritic: %w: metro index %d out of range [0,%d)", ErrInvalidConfig, metro, len(g.Metros))
	}
	if err := ctx.Err(); err != nil {
		return nil, abortErr(metro, op, err)
	}
	// Dense-metro pruning: Internet-scale head metros colocate thousands
	// of ASes, and everything below is O(members²). Metros at or under
	// the cap pass through untouched (the slice is returned as-is), so
	// legacy-scale results stay byte-identical.
	members := probe.TopMembers(g, g.Metros[metro].Members, cfg.MaxMetroMembers)
	ps.res = &Result{Metro: metro, Members: members}
	ps.stream = probe.NewStream(cfg.Seed)
	ps.rng = ps.stream.Rand()
	ps.clock.span(&ps.res.Timings.Estimate, func() {
		ps.est = p.Store.Estimate(metro, members, cfg.NegPolicy)
	})
	ps.features = BuildFeatures(g, members)
	return ps, nil
}

// finish is the completion tail: the final completion at opts' rank, λ
// and feature weight (replaced first by the Appx. D.4 grid when tune is
// set), warm-started from warm when it is compatible, one ctx poll, and
// the λ holdout search (§3.1) on the same problem — holdouts are overlay
// deltas, so it stays valid. Only the problems in use are built.
func (p *Pipeline) finish(ctx context.Context, ps *metroPass, opts als.Options, tune bool, warm *als.Factors) (*Result, error) {
	res, est := ps.res, ps.est
	opts.Iterations = ps.cfg.Rank.Iterations + 5
	opts.Seed = ps.cfg.Seed
	var prob *als.Problem
	if tune {
		probNoF := als.NewProblem(est.E, est.Mask, nil)
		probF := als.NewProblem(est.E, est.Mask, ps.features)
		t := als.TuneWith(probNoF, probF, est.E, est.Mask, opts.Rank, ps.rng)
		opts.Lambda, opts.FeatureWeight = t.Lambda, t.FeatureWeight
		prob = probNoF
		if opts.FeatureWeight > 0 {
			prob = probF
		}
	} else {
		features := ps.features
		if opts.FeatureWeight <= 0 {
			features = nil // bit-compatible with the features-off path
		}
		prob = als.NewProblem(est.E, est.Mask, features)
	}
	res.Lambda = opts.Lambda
	res.FeatureWeight = opts.FeatureWeight
	res.Factors = prob.Fit(opts, nil, warm)
	res.Ratings = prob.Ratings(res.Factors)
	ps.clock.mark(&res.Timings.Completion, &res.Timings.Allocs.Completion)
	if err := ctx.Err(); err != nil {
		return res, abortErr(res.Metro, "completion", err)
	}

	res.Threshold = p.pickThreshold(est, prob, opts, ps.rng)
	ps.clock.mark(&res.Timings.Threshold, &res.Timings.Allocs.Threshold)
	return res, nil
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
	ps, err := p.startPass(ctx, metro, cfg, "run")
	if err != nil {
		return nil, err
	}
	res, est, rng := ps.res, ps.est, ps.rng
	members := res.Members

	sel := probe.NewSelector(p.World.G, metro, members, p.VPs(), p.Hitlist)
	sel.UseStream(ps.stream)
	boot := cfg.BootstrapPerStrategy
	if cfg.Priors != nil {
		sel.InitPriors(*cfg.Priors, priorWeight)
		boot = (boot + 4) / 5 // transferred priors need far fewer samples
	}

	// The working estimate is delta-refreshed in place as measurements
	// land (obs.Store.Refresh re-derives only the pairs the new traces
	// touched, byte-identical to a full rebuild).
	refresh := func() {
		ps.clock.span(&res.Timings.Estimate, func() { p.Store.Refresh(est) })
	}
	budget := cfg.MaxMeasurements
	workers := measureWorkers(cfg)
	mstats := &res.Timings.Measure
	mstats.Workers = workers

	// Bootstrap phase (§3.3.2): calibrate per-strategy success rates with
	// a few random measurements per strategy before targeted selection.
	if boot > 0 && budget > 0 {
		plan := sel.BootstrapPlan(boot, 600, rng)
		p.runPlan(ctx, workers, plan, &budget, mstats, func(m probe.Measurement, findings []obs.Finding) {
			res.Measurements++
			res.BootstrapMeasurements++
			informative := obs.Reveals(findings, m.LinkI, m.LinkJ)
			sel.Report(m, informative)
			// Recorded as exploration-like: Fig. 4 calibration excludes
			// bootstrap probes since they are not P-selected.
			res.Calibrations = append(res.Calibrations, Calibration{
				P: m.P, Informative: informative, Exploration: true,
				VP: m.VP, Target: m.Target, LinkI: m.LinkI, LinkJ: m.LinkJ, Strat: m.Strat,
			})
		})
		refresh()
	}
	ps.clock.mark(&res.Timings.Bootstrap, &res.Timings.Allocs.Bootstrap)
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
				informative := obs.Reveals(findings, m.LinkI, m.LinkJ)
				sel.Report(m, informative)
				res.Calibrations = append(res.Calibrations, Calibration{
					P: m.P, Informative: informative, Exploration: m.Exploration,
					VP: m.VP, Target: m.Target, LinkI: m.LinkI, LinkJ: m.LinkJ, Strat: m.Strat,
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
	rcfg := cfg.Rank
	rcfg.Seed = cfg.Seed
	rcfg.Stop = func() bool { return ctx.Err() != nil }
	rres := rank.Estimate(est.E, est.Mask, ps.features, topUp, rcfg)
	res.Rank = rres.Rank
	res.RankHistory = rres.History
	res.Estimate = est
	res.StrategyRates = sel.StrategyRates()
	// Callers keep Results (a batch, a benchmark's passes), so drop the
	// append growth slack of the per-measurement record.
	if len(res.Calibrations) < cap(res.Calibrations) {
		res.Calibrations = append(make([]Calibration, 0, len(res.Calibrations)), res.Calibrations...)
	}
	ps.clock.mark(&res.Timings.RankLoop, &res.Timings.Allocs.RankLoop)
	if err := ctx.Err(); err != nil {
		return res, abortErr(metro, "rank estimation", err)
	}

	// Final completion at the estimated rank, then the λ search.
	return p.finish(ctx, ps, als.Options{Rank: rres.Rank, Lambda: rcfg.Lambda, FeatureWeight: rcfg.FeatureWeight}, cfg.Tune, nil)
}
