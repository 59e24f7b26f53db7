// Package eval contains the experiment drivers that regenerate every table
// and figure of the paper's evaluation (§4, §6 and the appendices), plus
// the train/test splits and external-validation datasets they rely on. See
// DESIGN.md for the experiment index.
package eval

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"

	"metascritic"
	"metascritic/internal/asgraph"
	"metascritic/internal/bgp"
	"metascritic/internal/engine"
	"metascritic/internal/igdb"
	"metascritic/internal/mat"
	"metascritic/internal/netsim"
	"metascritic/internal/stats"
)

// Harness owns a generated world and caches per-metro metAScritic runs so
// that several experiments can share them.
type Harness struct {
	W    *netsim.World
	P    *metascritic.Pipeline
	Cfg  metascritic.Config
	Seed int64

	results map[int]*metascritic.Result
	order   []int // metros in run order (hierarchical priors flow along it)

	publicPlan [][3]int // (vpAS, vpMetro, dst) public seed traceroutes

	pubView   map[asgraph.Pair]bool
	pubCache  *bgp.RouteCache
	pubOnly   map[int]*metascritic.Result
	commLinks map[int]map[asgraph.Pair]bool
	geo       *igdb.Database
}

// geoDB lazily builds the public (incomplete) footprint database.
func (h *Harness) geoDB() *igdb.Database {
	if h.geo == nil {
		h.geo = igdb.Build(h.W, 0.15)
	}
	return h.geo
}

// Options configures a harness.
type Options struct {
	// Scale shrinks the default metro sizes (1.0 = paper-like hundreds of
	// ASes per metro; tests use ~0.1).
	Scale float64
	Seed  int64
	// PublicPerProbe is the number of seed public traceroutes per probe.
	PublicPerProbe int
	// Budget caps targeted traceroutes per metro.
	Budget int
	// MaxRank caps the effective-rank search.
	MaxRank int
}

// DefaultOptions returns laptop-scale experiment settings.
func DefaultOptions() Options {
	return Options{Scale: 0.2, Seed: 1, PublicPerProbe: 20, Budget: 8000, MaxRank: 24}
}

// NewHarness generates the world and seeds public measurements.
func NewHarness(opt Options) *Harness {
	if opt.Scale == 0 {
		opt.Scale = 0.2
	}
	if opt.PublicPerProbe == 0 {
		opt.PublicPerProbe = 20
	}
	if opt.Budget == 0 {
		opt.Budget = 8000
	}
	if opt.MaxRank == 0 {
		opt.MaxRank = 24
	}
	w := netsim.Generate(netsim.Config{Seed: opt.Seed, Metros: netsim.DefaultMetros(opt.Scale)})
	p := metascritic.NewPipeline(w)
	// Build an explicit public-measurement plan (instead of calling
	// SeedPublicMeasurements) so strategy comparisons can replay the
	// exact same public seed into fresh observation stores.
	rng := rand.New(rand.NewSource(opt.Seed + 1000))
	var plan [][3]int
	for _, pr := range w.Probes {
		for k := 0; k < opt.PublicPerProbe; k++ {
			dst := rng.Intn(w.G.N())
			if dst == pr.AS {
				continue
			}
			plan = append(plan, [3]int{pr.AS, pr.Metro, dst})
		}
	}
	for _, t := range plan {
		p.Store.AddTrace(p.Engine.Run(t[0], t[1], t[2]))
	}

	cfg := metascritic.DefaultConfig()
	cfg.MaxMeasurements = opt.Budget
	cfg.BatchSize = 200
	cfg.Rank.MaxRank = opt.MaxRank
	cfg.Rank.Iterations = 8
	cfg.Seed = opt.Seed

	return &Harness{W: w, P: p, Cfg: cfg, Seed: opt.Seed, publicPlan: plan, results: map[int]*metascritic.Result{}}
}

// Run executes (or returns the cached) metAScritic result for a metro.
// Strategy priors learned at previously-run metros are pooled into the new
// metro's initialization (Appx. D.6).
func (h *Harness) Run(metro int) *metascritic.Result {
	if r, ok := h.results[metro]; ok {
		return r
	}
	cfg := h.Cfg
	cfg.Seed = h.Seed + int64(metro)
	if len(h.order) > 0 {
		var rates [][144]float64
		for _, m := range h.order {
			rates = append(rates, h.results[m].StrategyRates)
		}
		pooled := poolRates(rates)
		cfg.Priors = &pooled
	}
	r, err := h.P.Run(context.Background(), metro, cfg)
	if err != nil {
		// The harness API predates error returns and its configs come from
		// DefaultOptions, so a failure here is a programming error.
		panic(fmt.Sprintf("eval: run metro %d: %v", metro, err))
	}
	h.results[metro] = r
	h.order = append(h.order, metro)
	return r
}

// RunPrimariesParallel runs all (not yet cached) study metros through the
// concurrent engine with cross-metro prior sharing, adopts the results
// into the harness cache, and returns the batch statistics. Experiments
// that later ask for these metros reuse the cached results, so warming
// the cache this way parallelizes the dominant cost of a full experiment
// sweep. Unlike sequential Run, each metro measures against an isolated
// snapshot of the public evidence (the engine's determinism contract),
// so absolute numbers can differ slightly from a sequentially warmed
// cache.
func (h *Harness) RunPrimariesParallel(ctx context.Context, workers int) (engine.RunStats, error) {
	metros := h.W.PrimaryMetros()
	sort.Ints(metros)
	var todo []int
	for _, m := range metros {
		if _, ok := h.results[m]; !ok {
			todo = append(todo, m)
		}
	}
	if len(todo) == 0 {
		return engine.RunStats{}, nil
	}
	eng := engine.New(h.P)
	if len(h.order) > 0 {
		var rates [][144]float64
		for _, m := range h.order {
			rates = append(rates, h.results[m].StrategyRates)
		}
		eng.Priors().Add(poolRates(rates))
	}
	mr, err := eng.RunAll(ctx, engine.Config{
		Base:        h.Cfg,
		Metros:      todo,
		Workers:     workers,
		SharePriors: true,
	})
	if err != nil {
		return engine.RunStats{}, fmt.Errorf("eval: parallel primaries: %w", err)
	}
	for _, m := range mr.Metros {
		h.results[m] = mr.Results[m]
		h.order = append(h.order, m)
	}
	return mr.Stats, nil
}

func poolRates(rates [][144]float64) [144]float64 {
	var out [144]float64
	for _, r := range rates {
		for i := range out {
			out[i] += r[i]
		}
	}
	for i := range out {
		out[i] /= float64(len(rates))
	}
	return out
}

// RunPrimaries runs all six study metros in deterministic order.
func (h *Harness) RunPrimaries() []*metascritic.Result {
	metros := h.W.PrimaryMetros()
	sort.Ints(metros)
	out := make([]*metascritic.Result, 0, len(metros))
	for _, m := range metros {
		out = append(out, h.Run(m))
	}
	return out
}

// MetroName returns the metro's display name.
func (h *Harness) MetroName(m int) string { return h.W.G.Metros[m].Name }

// TruthLabels extracts ground-truth labels and completed scores for all
// member pairs of a result.
func (h *Harness) TruthLabels(res *metascritic.Result) (scores []float64, labels []bool) {
	truth := h.W.Truths[res.Metro]
	n := len(res.Members)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			scores = append(scores, res.Ratings.At(i, j))
			labels = append(labels, truth.M.Has(i, j))
		}
	}
	return scores, labels
}

// --- splits (§4.1) ---

// SplitKind selects a holdout scheme.
type SplitKind int

// Split kinds.
const (
	// Stratified removes 20% of the observed entries of every row.
	Stratified SplitKind = iota
	// RandomSplit removes 20% of the observed entries uniformly.
	RandomSplit
	// CompletelyOut removes whole random rows until 20% of observed
	// entries are gone (simulating ASes without usable vantage points).
	CompletelyOut
)

func (k SplitKind) String() string {
	switch k {
	case Stratified:
		return "Stratified"
	case RandomSplit:
		return "Random"
	default:
		return "Completely Out"
	}
}

// SplitEval is the outcome of evaluating a completion under a split.
type SplitEval struct {
	Kind      SplitKind
	Scores    []float64 // completed rating per held-out entry
	Labels    []bool    // measured sign of the held-out entry
	AUPRC     float64
	Precision float64 // at the F-maximizing threshold
	Recall    float64
}

// EvaluateSplit removes entries from the result's measured estimate
// according to the split, re-completes, and scores the held-out entries
// (labels = measured sign, the paper's cross-validation).
func (h *Harness) EvaluateSplit(res *metascritic.Result, kind SplitKind, frac float64, seed int64) SplitEval {
	est := res.Estimate
	rng := rand.New(rand.NewSource(seed))
	holdout := buildHoldout(est.Mask, kind, frac, rng)
	features := metascritic.BuildFeatures(h.W.G, res.Members)
	completed := completeLike(res, est.E, est.Mask, holdout, features)

	ev := SplitEval{Kind: kind}
	for _, hh := range holdout {
		ev.Scores = append(ev.Scores, completed.At(hh[0], hh[1]))
		ev.Labels = append(ev.Labels, est.E.At(hh[0], hh[1]) > 0)
	}
	if len(ev.Scores) == 0 {
		return ev
	}
	ev.AUPRC = stats.AUPRC(ev.Scores, ev.Labels)
	thr, _ := stats.BestF1Threshold(ev.Scores, ev.Labels)
	c := stats.Confuse(ev.Scores, ev.Labels, thr)
	ev.Precision = c.Precision()
	ev.Recall = c.Recall()
	return ev
}

// SplitSpec names one cross-validation evaluation: a holdout scheme, the
// fraction of entries to remove, and the seed of the draw.
type SplitSpec struct {
	Kind SplitKind
	Frac float64
	Seed int64
}

// EvaluateSplits scores every spec against the same result on a bounded
// worker pool and returns the evaluations in spec order. Each evaluation is
// an independent holdout draw plus a completion (completeLike), so they
// parallelize the same way the measurement fan-out does: pure work fans
// out, results land in a spec-indexed slice, and the output is byte-
// identical to calling EvaluateSplit sequentially for each spec.
func (h *Harness) EvaluateSplits(res *metascritic.Result, specs []SplitSpec) []SplitEval {
	out := make([]SplitEval, len(specs))
	if len(specs) == 0 {
		return out
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > len(specs) {
		workers = len(specs)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(start int) {
			defer wg.Done()
			for i := start; i < len(specs); i += workers {
				s := specs[i]
				out[i] = h.EvaluateSplit(res, s.Kind, s.Frac, s.Seed)
			}
		}(w)
	}
	wg.Wait()
	return out
}

// completeLike re-runs the final completion with the result's
// hyperparameters, with the holdout entries overlaid out of the mask.
func completeLike(res *metascritic.Result, E *mat.Matrix, mask *mat.Mask, holdout [][2]int, features *mat.Matrix) *mat.Matrix {
	return metascritic.CompleteWithout(E, mask, features, holdout, res.Rank, res.Lambda, res.FeatureWeight)
}

func buildHoldout(mask *mat.Mask, kind SplitKind, frac float64, rng *rand.Rand) [][2]int {
	n := mask.N()
	var all [][2]int
	mask.Entries(func(i, j int) {
		if i != j {
			all = append(all, [2]int{i, j})
		}
	})
	switch kind {
	case Stratified:
		var out [][2]int
		taken := map[[2]int]bool{}
		for i := 0; i < n; i++ {
			entries := mask.RowEntries(i)
			rng.Shuffle(len(entries), func(a, b int) { entries[a], entries[b] = entries[b], entries[a] })
			k := int(frac * float64(len(entries)))
			picked := 0
			for _, j := range entries {
				if picked >= k {
					break
				}
				if i == j {
					continue
				}
				key := [2]int{min(i, j), max(i, j)}
				if taken[key] {
					continue
				}
				taken[key] = true
				out = append(out, key)
				picked++
			}
		}
		return out
	case RandomSplit:
		rng.Shuffle(len(all), func(a, b int) { all[a], all[b] = all[b], all[a] })
		k := int(frac * float64(len(all)))
		return all[:k]
	default: // CompletelyOut
		rows := rng.Perm(n)
		target := int(frac * float64(len(all)))
		removedRows := map[int]bool{}
		var out [][2]int
		for _, r := range rows {
			if len(out) >= target {
				break
			}
			removedRows[r] = true
			for _, j := range mask.RowEntries(r) {
				if r == j {
					continue
				}
				key := [2]int{min(r, j), max(r, j)}
				// Avoid double-adding when both rows are removed.
				dup := false
				for _, e := range out {
					if e == key {
						dup = true
						break
					}
				}
				if !dup {
					out = append(out, key)
				}
			}
		}
		return out
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// --- text table rendering ---

// Table is a simple text table for experiment outputs.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// AddRow appends a row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// TitleText implements report.Table.
func (t *Table) TitleText() string { return t.Title }

// HeaderRow implements report.Table.
func (t *Table) HeaderRow() []string { return t.Header }

// DataRows implements report.Table.
func (t *Table) DataRows() [][]string { return t.Rows }

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	widths := make([]int, len(t.Header))
	for i, hcell := range t.Header {
		widths[i] = len(hcell)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// F formats a float at 3 decimals for tables.
func F(v float64) string { return fmt.Sprintf("%.3f", v) }

// D formats an int for tables.
func D(v int) string { return fmt.Sprintf("%d", v) }
