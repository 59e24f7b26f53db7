// Package metascritic is a from-scratch Go reproduction of "metAScritic:
// Reframing AS-Level Topology Discovery as a Recommendation System"
// (Salamatian et al., ACM IMC 2024).
//
// The package ties the system's modules together exactly as Fig. 2 of the
// paper describes: seed an estimated connectivity matrix E_m from public
// traceroutes, iteratively estimate the effective rank of the metro's true
// connectivity matrix while issuing targeted traceroutes (selected by the
// exploitation/exploration strategy machinery over 144 measurement
// strategies), complete the matrix with the hybrid ALS recommender, and
// translate ratings into links via a threshold λ tuned for F-score.
//
// The Internet itself is replaced by the synthetic world of
// internal/netsim (see DESIGN.md for the substitution map); everything the
// inference pipeline touches is public information: traceroute hops, AS
// relationships, footprints, PeeringDB-style features and probe locations.
package metascritic

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"time"

	"metascritic/internal/als"
	"metascritic/internal/asgraph"
	"metascritic/internal/mat"
	"metascritic/internal/netsim"
	"metascritic/internal/obs"
	"metascritic/internal/probe"
	"metascritic/internal/rank"
	"metascritic/internal/stats"
	"metascritic/internal/traceroute"
)

// priorWeight is the pseudo-trial mass each transferred Config.Priors rate
// carries into a metro's strategy statistics.
const priorWeight = 20

// Config controls one metro run.
type Config struct {
	// Epsilon is the exploration fraction ε of §3.3.1 (paper default 0.1).
	Epsilon float64
	// BatchSize is the number of traceroutes selected per batch.
	BatchSize int
	// MaxMeasurements caps the targeted traceroutes issued for the metro.
	MaxMeasurements int
	// NegPolicy selects the non-link inference conditions (§3.4 / E.7).
	NegPolicy obs.NegativePolicy
	// Rank configures the effective-rank estimation loop.
	Rank rank.Config
	// Priors optionally seeds strategy success rates from other metros
	// (Appx. D.6), each with priorWeight pseudo-trials of mass.
	Priors *[probe.NumStrategies]float64
	// BootstrapPerStrategy is the number of calibration traceroutes run
	// per measurement strategy before targeted selection begins (§3.3.2).
	// When cross-metro Priors are provided, a fifth as many suffice
	// (Appx. D.6 reports ~6x fewer).
	BootstrapPerStrategy int
	// Tune enables the hyperparameter grid search of Appx. D.4 before the
	// final completion.
	Tune bool
	// MeasureWorkers bounds the speculative traceroute fan-out of the
	// measurement pipeline (see measure.go): 0 means GOMAXPROCS, 1 is the
	// exact legacy serial path, N > 1 runs each batch's traceroutes on up
	// to N workers with an ordered commit. The resulting Result is
	// byte-identical across worker counts.
	MeasureWorkers int
	// MaxMetroMembers caps the colocated candidate set a metro run works
	// over: metros with more members are pruned to the top-K by
	// customer-cone size (degree tie-break, original order preserved; see
	// probe.TopMembers). Every per-pair structure — selector penalty
	// planes, the estimate E_m, the ALS ratings — is O(members²), so the
	// cap is what keeps dense Internet-scale metros (Zipf head metros
	// reach thousands of colocated ASes) inside a bounded footprint. The
	// default is far above any legacy-scale metro, so behavior below the
	// threshold is exactly unchanged. 0 disables pruning.
	MaxMetroMembers int
	// StrictBudget makes Run fail with ErrBudgetExhausted when
	// MaxMeasurements runs dry before the bootstrap calibration plan
	// completes, instead of silently proceeding with partially calibrated
	// strategy success rates. Off by default: the paper's system degrades
	// gracefully under tiny budgets, and so do we.
	StrictBudget bool
	Seed         int64
}

// DefaultConfig returns the paper's operating point.
func DefaultConfig() Config {
	return Config{
		Epsilon:              0.1,
		BatchSize:            300,
		MaxMeasurements:      40000,
		NegPolicy:            obs.NegMetascritic,
		Rank:                 rank.DefaultConfig(),
		BootstrapPerStrategy: 6,
		MaxMetroMembers:      1024,
		Seed:                 1,
	}
}

// Calibration records one targeted measurement's predicted informativeness
// probability and its outcome (the data behind Fig. 4).
type Calibration struct {
	P           float64
	Informative bool
	FoundLink   bool // an existing link was revealed
	FoundNon    bool // non-existence evidence was revealed
	Exploration bool
	// Measurement details, for analysis.
	VP     probe.VP
	Target probe.Target
	LinkI  int
	LinkJ  int
	Strat  probe.Strategy
}

// PhaseTimings records wall-clock spent in each phase of a metro run, plus
// the measurement pipeline's concurrency statistics, for the engine's
// aggregated run statistics. The phase clock starts at call entry and the
// four phases are consecutive, so Total() spans the whole Run or Rescore
// call; the call's prologue (validation, pruning, the first estimate, the
// features) falls into its first phase. Rescore has no bootstrap or rank
// loop, so its prologue falls into Completion.
type PhaseTimings struct {
	// Bootstrap covers Run's prologue and the per-strategy calibration
	// measurements (§3.3.2).
	Bootstrap time.Duration
	// RankLoop covers the iterative rank estimation with integrated
	// targeted measurement (§3.2 + §3.3).
	RankLoop time.Duration
	// Completion covers the final ALS completion (plus tuning, if any).
	Completion time.Duration
	// Threshold covers the λ holdout search (§3.1).
	Threshold time.Duration
	// Estimate is the wall-clock spent building and delta-refreshing the
	// connectivity estimate E_m (obs.Store.Estimate / Store.Refresh).
	// Like Measure.Wall it is a subset of the phases, so Total does not
	// add it.
	Estimate time.Duration
	// Measure counts the speculative fan-out work of the measurement
	// pipeline (batches, launched/committed/discarded traceroutes,
	// prefetched routes). Its wall-clock is a subset of Bootstrap+RankLoop.
	Measure MeasureStats
	// Allocs counts heap allocations attributed to each phase, sampled as
	// runtime.ReadMemStats deltas at the same boundaries as the wall-clock
	// fields, so Allocs.Total() also spans the whole call. The runtime
	// counter is process-global, so in a concurrent batch a phase's count
	// includes whatever other goroutines allocated meanwhile — read it
	// from single-run (or Workers=1) sessions when attributing
	// allocations precisely.
	Allocs PhaseAllocs
}

// PhaseAllocs breaks a run's heap allocation count down by phase,
// mirroring the wall-clock fields of PhaseTimings.
type PhaseAllocs struct {
	Bootstrap  uint64
	RankLoop   uint64
	Completion uint64
	Threshold  uint64
}

// Total returns the summed phase allocation count.
func (a PhaseAllocs) Total() uint64 {
	return a.Bootstrap + a.RankLoop + a.Completion + a.Threshold
}

// Total returns the summed phase wall-clock: the whole call.
func (t PhaseTimings) Total() time.Duration {
	return t.Bootstrap + t.RankLoop + t.Completion + t.Threshold
}

// Add accumulates another run's timings into t: phase wall-clocks and
// allocation counters sum, and the measurement statistics merge. It is
// how the engine aggregates per-metro phases into batch-level stats.
func (t *PhaseTimings) Add(o PhaseTimings) {
	t.Bootstrap += o.Bootstrap
	t.RankLoop += o.RankLoop
	t.Completion += o.Completion
	t.Threshold += o.Threshold
	t.Estimate += o.Estimate
	t.Measure.Merge(o.Measure)
	t.Allocs.Bootstrap += o.Allocs.Bootstrap
	t.Allocs.RankLoop += o.Allocs.RankLoop
	t.Allocs.Completion += o.Allocs.Completion
	t.Allocs.Threshold += o.Allocs.Threshold
}

// Result is the output of running metAScritic on one metro.
type Result struct {
	Metro   int
	Members []int
	// Estimate is the measured matrix E_m after targeted tracerouting.
	Estimate *obs.Estimate
	// Ratings is the completed matrix C_m as continuous scores in [-1,1].
	Ratings *mat.Matrix
	// Rank is the estimated effective rank.
	Rank int
	// RankHistory traces the estimation loop (Fig. 10-style data).
	RankHistory []rank.Step
	// Threshold is the λ maximizing F-score on an internal split.
	Threshold float64
	// Measurements is the number of targeted traceroutes issued.
	Measurements int
	// BootstrapMeasurements is the portion of Measurements spent on the
	// per-strategy calibration phase (§3.3.2). Cross-metro priors cut this
	// ~5x (Appx. D.6), which is what the engine's prior store exploits.
	BootstrapMeasurements int
	// Timings records per-phase wall-clock for this run.
	Timings PhaseTimings
	// Calibrations holds per-measurement probability/outcome records.
	Calibrations []Calibration
	// StrategyRates exports the learned per-strategy success rates for
	// hierarchical initialization of other metros.
	StrategyRates [probe.NumStrategies]float64
	// Lambda/FeatureWeight actually used for the final completion.
	Lambda        float64
	FeatureWeight float64
	// Factors holds the final completion's ALS factor matrices so an
	// incremental Rescore after topology evolution can warm-start from
	// them instead of re-converging from noise. Derived state: snapshot
	// restore leaves it nil, in which case Rescore falls back to a cold
	// factor initialization (still skipping rank sweep and tuning).
	Factors *als.Factors
}

// LinksAbove returns the member-index pairs whose rating is >= thr.
func (r *Result) LinksAbove(thr float64) []asgraph.Pair {
	var out []asgraph.Pair
	n := len(r.Members)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if r.Ratings.At(i, j) >= thr {
				out = append(out, asgraph.Pair{A: r.Members[i], B: r.Members[j]})
			}
		}
	}
	return out
}

// Rating returns the completed score for graph ASes a and b (0 if either
// is not a member).
func (r *Result) Rating(a, b int) float64 {
	i, ok1 := r.Estimate.Index[a]
	j, ok2 := r.Estimate.Index[b]
	if !ok1 || !ok2 {
		return 0
	}
	return r.Ratings.At(i, j)
}

// Pipeline runs metAScritic against a simulated world. The traceroute
// store is shared across metros so that observations transfer
// geographically (§3.4).
type Pipeline struct {
	World  *netsim.World
	Engine *traceroute.Engine
	Store  *obs.Store
	// Hitlist is the set of ASes with probe-able targets (ISI hitlist
	// analog).
	Hitlist []int
}

// NewPipeline builds a pipeline over a world.
func NewPipeline(w *netsim.World) *Pipeline {
	e := traceroute.NewEngine(w)
	// Hop resolution cross-checks the bdrmapit-style mapping against RTT
	// geolocation from the metros that host probes (Appx. D.2).
	probeMetros := map[int]bool{}
	for _, pr := range w.Probes {
		probeMetros[pr.Metro] = true
	}
	var metros []int
	for m := range probeMetros {
		metros = append(metros, m)
	}
	sort.Ints(metros)
	p := &Pipeline{
		World:  w,
		Engine: e,
		Store:  obs.NewStore(w.G, e.Reg.RefinedResolver(metros)),
	}
	// The hitlist is public knowledge of probe-able addresses: ASes that
	// answer probes (the real system uses the responsiveness-ranked ISI
	// hitlist).
	for i, resp := range w.Responsive {
		if resp {
			p.Hitlist = append(p.Hitlist, i)
		}
	}
	return p
}

// SetRouteCacheBudget bounds the pipeline's shared route cache to roughly
// the given number of bytes (0 = unbounded): cold destinations are
// evicted second-chance style and recompute on demand, so results are
// unchanged — only the hit rate moves. See bgp.RouteCache.SetBudget.
func (p *Pipeline) SetRouteCacheBudget(bytes int64) {
	p.Engine.Cache.SetBudget(bytes)
}

// VPs converts the world's probes to selector vantage points.
func (p *Pipeline) VPs() []probe.VP {
	out := make([]probe.VP, len(p.World.Probes))
	for i, pr := range p.World.Probes {
		out[i] = probe.VP{AS: pr.AS, Metro: pr.Metro}
	}
	return out
}

// SeedPublicMeasurements simulates the public RIPE Atlas / Ark archives:
// every probe traceroutes toward a random sample of destinations. These
// traces seed E_m before any targeted measurement.
func (p *Pipeline) SeedPublicMeasurements(perProbe int, rng *rand.Rand) int {
	n := p.World.G.N()
	// Draw the full plan first (the RNG sequence is part of the pipeline's
	// determinism contract), warm the route cache for every distinct
	// destination across the worker pool, then replay the traces in order.
	type seedTrace struct{ as, metro, dst int }
	plan := make([]seedTrace, 0, len(p.World.Probes)*perProbe)
	dests := make([]int, 0, len(p.World.Probes)*perProbe)
	for _, pr := range p.World.Probes {
		for k := 0; k < perProbe; k++ {
			dst := rng.Intn(n)
			if dst == pr.AS {
				continue
			}
			plan = append(plan, seedTrace{pr.AS, pr.Metro, dst})
			dests = append(dests, dst)
		}
	}
	p.Engine.Cache.Warm(context.Background(), dests, 0)
	for _, t := range plan {
		p.Store.AddTrace(p.Engine.Run(t.as, t.metro, t.dst))
	}
	return len(plan)
}

// BuildFeatures assembles the per-member feature matrix used by the hybrid
// recommender: one-hot AS class, peering policy, traffic profile and
// continent, plus log-scaled eyeballs, cone size, footprint size and
// address space (Appx. C / D.3).
func BuildFeatures(g *asgraph.Graph, members []int) *mat.Matrix {
	nClass := int(asgraph.NumClasses)
	nPol := int(asgraph.NumPolicies)
	nProf := int(asgraph.NumProfiles)
	nCont := len(g.Continents)
	cols := nClass + nPol + nProf + nCont + 4
	f := mat.New(len(members), cols)
	for r, ai := range members {
		a := g.ASes[ai]
		c := 0
		f.Set(r, c+int(a.Class), 1)
		c += nClass
		f.Set(r, c+int(a.Policy), 1)
		c += nPol
		f.Set(r, c+int(a.Traffic), 1)
		c += nProf
		cont := g.Countries[a.Country].Continent
		f.Set(r, c+cont, 1)
		c += nCont
		f.Set(r, c, math.Log1p(float64(a.Eyeballs)))
		f.Set(r, c+1, math.Log1p(float64(g.ConeSize(ai))))
		f.Set(r, c+2, float64(len(a.Metros)))
		f.Set(r, c+3, math.Log1p(float64(a.AddrSpace)))
	}
	return f
}

// Snapshot returns a pipeline sharing this pipeline's (immutable) world,
// traceroute engine and hitlist, but owning an O(1) copy-on-write handle
// on the observation store: base and snapshot share all accumulated
// evidence until either mutates, at which point the mutating store
// lazily copies just the structures it touches (obs.Store.Clone). A
// snapshot can run a metro without its targeted traceroutes leaking into
// other runs — the isolation unit behind the concurrent engine: every
// metro of an engine batch measures against the evidence available when
// the batch started.
func (p *Pipeline) Snapshot() *Pipeline {
	return &Pipeline{
		World:   p.World,
		Engine:  p.Engine,
		Store:   p.Store.Clone(),
		Hitlist: p.Hitlist,
	}
}

// CompleteWith re-runs the hybrid completion with explicit hyperparameters
// (used by the evaluation splits to replay a result's configuration over a
// reduced mask).
func CompleteWith(E *mat.Matrix, mask *mat.Mask, features *mat.Matrix, rank int, lambda, featureWeight float64) *mat.Matrix {
	return als.Complete(E, mask, features, als.Options{
		Rank:          rank,
		Lambda:        lambda,
		FeatureWeight: featureWeight,
		Iterations:    15,
		Seed:          1,
	})
}

// CompleteWithout is CompleteWith with the holdout entries removed from the
// observation set — the evaluation-split primitive. The removals are
// applied as an overlay, so the caller's mask is never cloned or mutated,
// and the result is bit-identical to unsetting the entries from a copy.
func CompleteWithout(E *mat.Matrix, mask *mat.Mask, features *mat.Matrix, holdout [][2]int, rank int, lambda, featureWeight float64) *mat.Matrix {
	if featureWeight <= 0 {
		features = nil
	}
	ov := mat.NewOverlay(mask)
	for _, h := range holdout {
		ov.Remove(h[0], h[1])
	}
	return als.NewProblem(E, mask, features).Complete(als.Options{
		Rank:          rank,
		Lambda:        lambda,
		FeatureWeight: featureWeight,
		Iterations:    15,
		Seed:          1,
	}, ov)
}

// pickThreshold runs an internal stratified holdout to choose λ. The
// holdout is applied as an overlay on prob (the final completion problem),
// so no mask clone or observation rebuild happens here.
func (p *Pipeline) pickThreshold(est *obs.Estimate, prob *als.Problem, opts als.Options, rng *rand.Rand) float64 {
	var holdout [][2]int
	ov := mat.NewOverlay(est.Mask)
	n := est.Mask.N()
	for i := 0; i < n; i++ {
		// RowEntries returns a freshly-allocated copy (its documented
		// contract), so shuffling here cannot corrupt the mask's sorted-row
		// CSR invariant; TestRowEntriesReturnsCopy and the end-to-end mask
		// invariant test pin this.
		entries := est.Mask.RowEntries(i)
		rng.Shuffle(len(entries), func(a, b int) { entries[a], entries[b] = entries[b], entries[a] })
		k := len(entries) / 5
		for _, j := range entries[:k] {
			if i < j && ov.Has(i, j) {
				ov.Remove(i, j)
				holdout = append(holdout, [2]int{i, j})
			}
		}
	}
	if len(holdout) < 5 {
		return 0.3 // not enough data; the paper's max-F operating point
	}
	completed := prob.Complete(opts, ov)
	scores := make([]float64, len(holdout))
	labels := make([]bool, len(holdout))
	for k, h := range holdout {
		scores[k] = completed.At(h[0], h[1])
		labels[k] = est.E.At(h[0], h[1]) > 0
	}
	thr, _ := stats.BestF1Threshold(scores, labels)
	// The paper operates λ in [0.1, 1] (Fig. 15); clamp the search result
	// so degenerate holdouts cannot produce an accept-everything λ.
	if thr < 0.1 {
		thr = 0.1
	}
	if thr > 0.95 {
		thr = 0.95
	}
	return thr
}
