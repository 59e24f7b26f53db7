package eval

import (
	"math/rand"

	"metascritic"
	"metascritic/internal/baseline"
	"metascritic/internal/obs"
	"metascritic/internal/probe"
	"metascritic/internal/stats"
)

// MetascriticPicker adapts metAScritic's own ε-greedy batch selection to
// the baseline.Picker interface, so Table 2 / Fig. 11 compare all
// strategies under identical budgets and execution.
type MetascriticPicker struct {
	Eps float64
}

// Name implements baseline.Picker.
func (m MetascriticPicker) Name() string { return "metAScritic" }

// NextBatch implements baseline.Picker.
func (m MetascriticPicker) NextBatch(sel *probe.Selector, st baseline.State, size int, rng *rand.Rand) []probe.Measurement {
	need := make([]int, st.N)
	for i := range need {
		need[i] = st.N
	}
	return sel.SelectBatch(size, m.Eps, st.Fill, need, st.Has, rng)
}

// BatchStat records discovery progress after one batch of measurements.
type BatchStat struct {
	Measurements int // cumulative traceroutes issued
	Entries      int // cumulative observed entries (distinct pairs)
	LinksFound   int // cumulative positive entries
	RowsAboveK   int // rows with at least K observed entries
}

// StrategyRun is the outcome of driving one selection strategy with a
// fixed measurement budget on one metro.
type StrategyRun struct {
	Name      string
	Rank      int // estimated (metAScritic) or post-hoc tuned rank
	Precision float64
	Recall    float64
	FScore    float64
	Batches   []BatchStat
	Est       *obs.Estimate
}

// strategyBudget is the preamble of the strategy comparisons (Table 2,
// Fig. 11 and the ε ablation) on the Sydney-like metro: metAScritic's own
// run there, and the budget every strategy spends — metAScritic's
// measurement count, at least 200 — in batches of budget/div, at least 20.
func (h *Harness) strategyBudget(div int) (metro int, msRes *metascritic.Result, budget, batch int) {
	metro = h.W.G.MetroOfName("Sydney").Index
	msRes = h.Run(metro)
	budget = max(msRes.Measurements, 200)
	return metro, msRes, budget, max(budget/div, 20)
}

// RunStrategy replays the public seed into a fresh store, then spends the
// measurement budget according to the picker, finally completing the
// matrix and scoring it against ground truth. If fixedRank > 0 it is used
// directly (metAScritic's estimated rank); otherwise the rank is tuned
// post-hoc for best F-score, as the paper does for the baselines.
func (h *Harness) RunStrategy(metro int, picker baseline.Picker, budget, batchSize int, fixedRank int, rowsAboveK int, seed int64) *StrategyRun {
	g := h.W.G
	members := g.Metros[metro].Members
	store := obs.NewStore(g, h.P.Engine.Reg.Resolve)
	for _, t := range h.publicPlan {
		store.AddTrace(h.P.Engine.Run(t[0], t[1], t[2]))
	}
	sel := probe.NewSelector(g, metro, members, h.P.VPs(), h.P.Hitlist)
	// The stream's draws equal rand.NewSource(seed)'s; telling the
	// selector lets it skip replayed draws in bulk.
	stream := probe.NewStream(seed)
	sel.UseStream(stream)
	rng := stream.Rand()
	est := store.Estimate(metro, members, obs.NegMetascritic)

	run := &StrategyRun{Name: picker.Name()}
	spent := 0
	for spent < budget {
		size := batchSize
		if size > budget-spent {
			size = budget - spent
		}
		st := baseline.State{N: len(members), Fill: est.RowFill(), Has: est.Mask.Has}
		batch := picker.NextBatch(sel, st, size, rng)
		if len(batch) == 0 {
			break
		}
		for _, m := range batch {
			spent++
			tr := h.P.Engine.RunTarget(m.VP.AS, m.VP.Metro, m.Target.AS, m.Target.Metro)
			sel.Report(m, obs.Reveals(store.AddTrace(tr), m.LinkI, m.LinkJ))
		}
		store.Refresh(est)
		run.Batches = append(run.Batches, h.batchStat(est, spent, rowsAboveK))
	}
	run.Est = est

	// Completion and scoring against ground truth.
	features := metascritic.BuildFeatures(g, members)
	score := func(r int) (p, rec, f float64) {
		prob, fa := metascritic.Refit(est.E, est.Mask, features, nil, r, 0.08, 0.35)
		scores, labels := h.truthLabels(metro, len(members), prob.Ratings(fa))
		thr, fbest := stats.BestF1Threshold(scores, labels)
		c := stats.Confuse(scores, labels, thr)
		return c.Precision(), c.Recall(), fbest
	}
	if fixedRank > 0 {
		run.Rank = fixedRank
		run.Precision, run.Recall, run.FScore = score(fixedRank)
		return run
	}
	// Post-hoc rank search over a small grid.
	bestF := -1.0
	for _, r := range []int{2, 4, 6, 8, 12, 16, 24, 32} {
		p, rec, f := score(r)
		if f > bestF {
			bestF = f
			run.Rank = r
			run.Precision, run.Recall, run.FScore = p, rec, f
		}
	}
	return run
}

func (h *Harness) batchStat(est *obs.Estimate, spent, k int) BatchStat {
	bs := BatchStat{Measurements: spent}
	n := len(est.Members)
	for i := 0; i < n; i++ {
		cnt := est.Mask.RowCount(i)
		if cnt >= k {
			bs.RowsAboveK++
		}
		for _, j := range est.Mask.RowEntries(i) {
			if j > i {
				bs.Entries++
				if est.E.At(i, j) > 0 {
					bs.LinksFound++
				}
			}
		}
	}
	return bs
}
