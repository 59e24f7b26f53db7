// Package eval contains the experiment drivers that regenerate every table
// and figure of the paper's evaluation (§4, §6 and the appendices), plus
// the train/test splits and external-validation datasets they rely on. See
// DESIGN.md for the experiment index.
package eval

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"
	"unicode/utf8"

	"metascritic"
	"metascritic/internal/als"
	"metascritic/internal/asgraph"
	"metascritic/internal/bgp"
	"metascritic/internal/igdb"
	"metascritic/internal/mat"
	"metascritic/internal/netsim"
	"metascritic/internal/par"
	"metascritic/internal/probe"
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
	// pub is the pipeline as it stood after the public seed, before any
	// targeted run: runs that must see public evidence only start from a
	// snapshot of it.
	pub *metascritic.Pipeline

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
	// SeedPublicMeasurements) so RunStrategy can replay the exact same
	// public seed into its own observation store.
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

	return &Harness{W: w, P: p, Cfg: cfg, Seed: opt.Seed, publicPlan: plan, pub: p.Snapshot(),
		results: map[int]*metascritic.Result{}}
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
		rates := make([][probe.NumStrategies]float64, len(h.order))
		for i, m := range h.order {
			rates[i] = h.results[m].StrategyRates
		}
		pooled := probe.PoolPriors(rates...)
		cfg.Priors = &pooled
	}
	r, err := h.P.Run(context.Background(), metro, cfg)
	if err != nil {
		// The harness API predates error returns and its config is built
		// by NewHarness, so a failure here is a programming error.
		panic(fmt.Sprintf("eval: run metro %d: %v", metro, err))
	}
	h.results[metro] = r
	h.order = append(h.order, metro)
	return r
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
	return h.truthLabels(res.Metro, res.Ratings.N(), res.Ratings)
}

// truthLabels pairs every upper-triangle entry of a metro's completed
// n×n member matrix with its ground-truth link label.
func (h *Harness) truthLabels(metro, n int, completed mat.View) (scores []float64, labels []bool) {
	truth := h.W.Truths[metro]
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			scores = append(scores, completed.At(i, j))
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
// according to the split, re-completes with the result's hyperparameters,
// and scores the held-out entries (labels = measured sign, the paper's
// cross-validation).
func (h *Harness) EvaluateSplit(res *metascritic.Result, kind SplitKind, frac float64, seed int64) SplitEval {
	est := res.Estimate
	rng := rand.New(rand.NewSource(seed))
	holdout := buildHoldout(est.Mask, kind, frac, rng)
	features := metascritic.BuildFeatures(h.W.G, res.Members)
	_, fa := metascritic.Refit(est.E, est.Mask, features, holdout, res.Rank, res.Lambda, res.FeatureWeight)

	ev := SplitEval{Kind: kind}
	ev.Scores, ev.Labels = holdoutLabels(fa, est.E, holdout)
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

// EvaluateSplits scores every spec against the same result through
// par.For and returns the evaluations in spec order. Each evaluation is an
// independent holdout draw plus a completion, so they parallelize the same
// way the measurement fan-out does: pure work fans out, results land in a
// spec-indexed slice, and the output is byte-identical to calling
// EvaluateSplit sequentially for each spec.
func (h *Harness) EvaluateSplits(res *metascritic.Result, specs []SplitSpec) []SplitEval {
	out := make([]SplitEval, len(specs))
	par.For(len(specs), 0, func(_, i int) {
		s := specs[i]
		out[i] = h.EvaluateSplit(res, s.Kind, s.Frac, s.Seed)
	})
	return out
}

// holdoutLabels pairs every held-out entry's completed score, read from the
// fit's factors, with its measured sign, the label of the paper's
// cross-validation.
func holdoutLabels(fa *als.Factors, E mat.View, holdout [][2]int) (scores []float64, labels []bool) {
	for _, hh := range holdout {
		scores = append(scores, fa.Rating(hh[0], hh[1]))
		labels = append(labels, E.At(hh[0], hh[1]) > 0)
	}
	return scores, labels
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
		var out [][2]int
		taken := map[[2]int]bool{}
		for _, r := range rows {
			if len(out) >= target {
				break
			}
			for _, j := range mask.RowEntries(r) {
				if r == j {
					continue
				}
				// A pair whose other row was removed first is already out.
				key := [2]int{min(r, j), max(r, j)}
				if !taken[key] {
					taken[key] = true
					out = append(out, key)
				}
			}
		}
		return out
	}
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

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	// Widths and padding count runes, not bytes, so cells such as "—" or
	// "λ" line up.
	widths := make([]int, len(t.Header))
	for i, hcell := range t.Header {
		widths[i] = utf8.RuneCountInString(hcell)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) {
				widths[i] = max(widths[i], utf8.RuneCountInString(c))
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			b.WriteString(strings.Repeat(" ", widths[i]-utf8.RuneCountInString(c)))
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// Markdown writes the table as a GitHub-flavored markdown table with its
// title as a heading.
func (t *Table) Markdown(w io.Writer) error {
	if t.Title != "" {
		if _, err := fmt.Fprintf(w, "### %s\n\n", t.Title); err != nil {
			return err
		}
	}
	if len(t.Header) == 0 {
		return nil
	}
	writeRow := func(cells []string) error {
		var b strings.Builder
		b.WriteByte('|')
		for _, c := range cells {
			b.WriteByte(' ')
			b.WriteString(escapeCell(c))
			b.WriteString(" |")
		}
		b.WriteByte('\n')
		_, err := io.WriteString(w, b.String())
		return err
	}
	if err := writeRow(t.Header); err != nil {
		return err
	}
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = "---"
	}
	if err := writeRow(sep); err != nil {
		return err
	}
	for _, row := range t.Rows {
		padded := make([]string, len(t.Header))
		copy(padded, row)
		if err := writeRow(padded); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "\n")
	return err
}

func escapeCell(s string) string {
	s = strings.ReplaceAll(s, "|", "\\|")
	return strings.ReplaceAll(s, "\n", " ")
}

// F formats a float at 3 decimals for tables.
func F(v float64) string { return fmt.Sprintf("%.3f", v) }

// D formats an int for tables.
func D(v int) string { return fmt.Sprintf("%d", v) }
