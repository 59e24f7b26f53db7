package eval

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"metascritic"
	"metascritic/internal/asgraph"
	"metascritic/internal/bgp"
	"metascritic/internal/par"
	"metascritic/internal/stats"
)

// TrueTopology returns the BGP substrate over the full ground-truth graph.
func (h *Harness) TrueTopology() *bgp.Topology {
	return bgp.FromGraph(h.W.G)
}

// buildPredictionTopology builds a routing topology from the always-known
// c2p relationships (the CAIDA AS-relationship analog) plus the given
// peering links.
func (h *Harness) buildPredictionTopology(p2p map[asgraph.Pair]bool) *bgp.Topology {
	t := bgp.NewTopology(h.W.G.N())
	for pr, rel := range h.W.Rel {
		if rel != asgraph.C2P {
			continue
		}
		cust, prov := pr.A, pr.B
		if !h.W.CustomerIsA[pr] {
			cust, prov = prov, cust
		}
		t.AddC2P(cust, prov)
	}
	for pr := range p2p {
		if rel, ok := h.W.RelOf(pr.A, pr.B); ok && rel == asgraph.C2P {
			continue // already wired as transit
		}
		t.AddP2P(pr.A, pr.B)
	}
	return t
}

// PublicPeering returns the peering links visible in the public BGP view.
func (h *Harness) PublicPeering() map[asgraph.Pair]bool {
	out := map[asgraph.Pair]bool{}
	for pr := range h.publicView() {
		if rel, ok := h.W.RelOf(pr.A, pr.B); ok && rel == asgraph.P2P {
			out[pr] = true
		}
	}
	return out
}

// linkSets assembles the three cumulative link sets of §6: public BGP,
// +measured, +measured+inferred (at thr) across all primary metros.
func (h *Harness) linkSets(thr float64) (pub, meas, inf map[asgraph.Pair]bool) {
	pub = h.PublicPeering()
	meas = map[asgraph.Pair]bool{}
	inf = map[asgraph.Pair]bool{}
	for pr := range pub {
		meas[pr] = true
		inf[pr] = true
	}
	for _, res := range h.RunPrimaries() {
		for _, pr := range MeasuredLinks(res) {
			meas[pr] = true
			inf[pr] = true
		}
		for _, pr := range InferredLinks(res, thr) {
			inf[pr] = true
		}
	}
	return pub, meas, inf
}

// --- Fig. 7: hijack prediction ---

// Fig7Result summarizes the hijack-prediction experiment.
type Fig7Result struct {
	Configs        int
	AccBGP         []float64 // per-config accuracy, public BGP topology
	AccMeasured    []float64
	AccInferredLo  []float64 // worst over thresholds 0.3..1.0
	AccInferredHi  []float64 // best over thresholds
	MeanBGP        float64
	MeanMeasured   float64
	MeanInferredHi float64
}

// Fig7 predicts the catchment of competing prefix announcements under
// three topologies and compares against ground truth, across announcement
// configurations at pairs of primary metros.
func Fig7(h *Harness) (Fig7Result, *Table) {
	rng := rand.New(rand.NewSource(h.Seed + 7))
	truth := h.TrueTopology()
	pub, meas, _ := h.linkSets(0.3)
	topoBGP := h.buildPredictionTopology(pub)
	topoMeas := h.buildPredictionTopology(meas)
	thresholds := []float64{0.3, 0.5, 0.7, 0.9}
	var topoInf []*bgp.Topology
	for _, thr := range thresholds {
		_, _, inf := h.linkSets(thr)
		topoInf = append(topoInf, h.buildPredictionTopology(inf))
	}

	// Announcement seeds: transit members of each metro.
	seedsAt := func(metro int) []int {
		var out []int
		for _, ai := range h.W.G.Metros[metro].Members {
			c := h.W.G.ASes[ai].Class
			if c == asgraph.Transit || c == asgraph.LargeISP {
				out = append(out, ai)
			}
		}
		return out
	}
	primaries := h.W.PrimaryMetros()
	sort.Ints(primaries)

	var res Fig7Result
	accuracy := func(t *bgp.Topology, vict, att []int, actual []uint8) float64 {
		pred := t.SimulateHijack(vict, att)
		good, total := 0, 0
		for as := range actual {
			actHij := actual[as]&bgp.FlagAttacker != 0
			predHij := pred[as]&bgp.FlagAttacker != 0
			predLegit := pred[as]&bgp.FlagVictim != 0
			total++
			if predHij == actHij || (predHij && predLegit) {
				good++
			}
		}
		if total == 0 {
			return 0
		}
		return float64(good) / float64(total)
	}

	// Announcement configurations are drawn sequentially (the RNG sequence
	// is part of the experiment's determinism contract), then the pure
	// simulation work — one ground-truth run plus one run per prediction
	// topology per config — fans out over a bounded pool, landing results
	// in a config-indexed slice. Output is byte-identical to the serial
	// sweep.
	type hijackCfg struct {
		vict, att []int
	}
	var cfgs []hijackCfg
	for a := 0; a < len(primaries); a++ {
		for b := a + 1; b < len(primaries); b++ {
			sa, sb := seedsAt(primaries[a]), seedsAt(primaries[b])
			if len(sa) == 0 || len(sb) == 0 {
				continue
			}
			for cfgIdx := 0; cfgIdx < 6; cfgIdx++ {
				nv := 1 + rng.Intn(3)
				na := 1 + rng.Intn(3)
				vict := sampleInts(sa, nv, rng)
				att := sampleInts(sb, na, rng)
				cfgs = append(cfgs, hijackCfg{vict: vict, att: att})
			}
		}
	}

	type hijackAcc struct {
		bgp, meas, lo, hi float64
	}
	accs := make([]hijackAcc, len(cfgs))
	par.For(len(cfgs), 0, func(_, i int) {
		c := cfgs[i]
		actual := truth.SimulateHijack(c.vict, c.att)
		a := hijackAcc{
			bgp:  accuracy(topoBGP, c.vict, c.att, actual),
			meas: accuracy(topoMeas, c.vict, c.att, actual),
			lo:   1.0,
			hi:   0.0,
		}
		for _, ti := range topoInf {
			acc := accuracy(ti, c.vict, c.att, actual)
			if acc < a.lo {
				a.lo = acc
			}
			if acc > a.hi {
				a.hi = acc
			}
		}
		accs[i] = a
	})
	for _, a := range accs {
		res.Configs++
		res.AccBGP = append(res.AccBGP, a.bgp)
		res.AccMeasured = append(res.AccMeasured, a.meas)
		res.AccInferredLo = append(res.AccInferredLo, a.lo)
		res.AccInferredHi = append(res.AccInferredHi, a.hi)
	}
	res.MeanBGP = stats.Mean(res.AccBGP)
	res.MeanMeasured = stats.Mean(res.AccMeasured)
	res.MeanInferredHi = stats.Mean(res.AccInferredHi)
	tbl := &Table{Title: "Fig. 7 — hijack prediction accuracy (mean over configs)",
		Header: []string{"Topology", "MeanAccuracy", "Median", "P10"}}
	for _, row := range []struct {
		name string
		xs   []float64
	}{
		{"Public BGP", res.AccBGP},
		{"BGP + Measurements", res.AccMeasured},
		{"BGP + Meas. + Inferences (lo)", res.AccInferredLo},
		{"BGP + Meas. + Inferences (hi)", res.AccInferredHi},
	} {
		tbl.AddRow(row.name, F(stats.Mean(row.xs)), F(stats.Quantile(row.xs, 0.5)), F(stats.Quantile(row.xs, 0.1)))
	}
	return res, tbl
}

func sampleInts(xs []int, k int, rng *rand.Rand) []int {
	if k > len(xs) {
		k = len(xs)
	}
	perm := rng.Perm(len(xs))
	out := make([]int, k)
	for i := 0; i < k; i++ {
		out[i] = xs[perm[i]]
	}
	return out
}

// --- Table 3: flattening ---

// Table3Row is one metro's flattening metrics.
type Table3Row struct {
	Metro string
	// Fraction of (src,dst) pairs with a strictly shorter AS path than
	// under the public BGP topology.
	ShorterM, ShorterInf float64
	// Country-restricted variants.
	ShorterMCountry, ShorterInfCountry float64
	// Fraction of best paths through a provider.
	ProvBGP, ProvM, ProvInf                      float64
	ProvBGPCountry, ProvMCountry, ProvInfCountry float64
	// CountryCompared reports whether the country-restricted comparison
	// ran. It is false for the Global row and for a metro with no source
	// in its own country; the Country fields are then not measurements.
	CountryCompared bool
}

// Table3 computes the flattening metrics for every primary metro plus a
// global row (links from all metros combined).
func Table3(h *Harness) ([]Table3Row, *Table) {
	rng := rand.New(rand.NewSource(h.Seed + 3))
	pub := h.PublicPeering()
	topoBGP := h.buildPredictionTopology(pub)

	// Destination sample shared by every comparison.
	n := h.W.G.N()
	nd := 120
	if nd > n {
		nd = n
	}
	dests := sampleInts(seqInts(n), nd, rng)

	primaries := h.W.PrimaryMetros()
	sort.Ints(primaries)
	var rows []Table3Row

	measAll := map[asgraph.Pair]bool{}
	infAll := map[asgraph.Pair]bool{}
	var affectedAll []int

	for _, metro := range primaries {
		res := h.Run(metro)
		meas := map[asgraph.Pair]bool{}
		inf := map[asgraph.Pair]bool{}
		for pr := range pub {
			meas[pr] = true
			inf[pr] = true
		}
		affected := map[int]bool{}
		for _, pr := range MeasuredLinks(res) {
			meas[pr] = true
			inf[pr] = true
			measAll[pr] = true
			infAll[pr] = true
			if !pub[pr] {
				affected[pr.A] = true
				affected[pr.B] = true
			}
		}
		for _, pr := range InferredLinks(res, res.Threshold) {
			inf[pr] = true
			infAll[pr] = true
			affected[pr.A] = true
			affected[pr.B] = true
		}
		var sources []int
		for ai := range affected {
			sources = append(sources, ai)
			affectedAll = append(affectedAll, ai)
		}
		sort.Ints(sources)
		if len(sources) > 80 {
			sources = sampleInts(sources, 80, rng)
		}
		country := h.W.G.Metros[metro].Country
		var ctrySources []int
		for _, s := range sources {
			if h.W.G.ASes[s].Country == country {
				ctrySources = append(ctrySources, s)
			}
		}

		topoM := h.buildPredictionTopology(meas)
		topoInf := h.buildPredictionTopology(inf)
		row := Table3Row{Metro: h.MetroName(metro)}
		row.ShorterM, row.ProvBGP, row.ProvM = comparePaths(topoBGP, topoM, sources, dests)
		row.ShorterInf, _, row.ProvInf = comparePaths(topoBGP, topoInf, sources, dests)
		if len(ctrySources) > 0 {
			row.CountryCompared = true
			row.ShorterMCountry, row.ProvBGPCountry, row.ProvMCountry = comparePaths(topoBGP, topoM, ctrySources, dests)
			row.ShorterInfCountry, _, row.ProvInfCountry = comparePaths(topoBGP, topoInf, ctrySources, dests)
		}
		rows = append(rows, row)
	}

	// Global row.
	global := Table3Row{Metro: "Global"}
	sort.Ints(affectedAll)
	affectedAll = dedupeInts(affectedAll)
	if len(affectedAll) > 120 {
		affectedAll = sampleInts(affectedAll, 120, rng)
	}
	measT := map[asgraph.Pair]bool{}
	infT := map[asgraph.Pair]bool{}
	for pr := range pub {
		measT[pr] = true
		infT[pr] = true
	}
	for pr := range measAll {
		measT[pr] = true
	}
	for pr := range infAll {
		infT[pr] = true
	}
	topoM := h.buildPredictionTopology(measT)
	topoInf := h.buildPredictionTopology(infT)
	global.ShorterM, global.ProvBGP, global.ProvM = comparePaths(topoBGP, topoM, affectedAll, dests)
	global.ShorterInf, _, global.ProvInf = comparePaths(topoBGP, topoInf, affectedAll, dests)
	rows = append(rows, global)

	tbl := &Table{Title: "Table 3 — flattening: shorter paths and provider-path fractions",
		Header: []string{"Metro", "+M shorter", "+Inf shorter", "+M shorter(ctry)", "+Inf shorter(ctry)", "BGP prov", "+M prov", "+Inf prov", "BGP prov(ctry)", "+M prov(ctry)", "+Inf prov(ctry)"}}
	for _, r := range rows {
		ctry := func(v float64) string {
			if !r.CountryCompared {
				return "—"
			}
			return F(v)
		}
		tbl.AddRow(r.Metro, F(r.ShorterM), F(r.ShorterInf), ctry(r.ShorterMCountry), ctry(r.ShorterInfCountry),
			F(r.ProvBGP), F(r.ProvM), F(r.ProvInf), ctry(r.ProvBGPCountry), ctry(r.ProvMCountry), ctry(r.ProvInfCountry))
	}
	return rows, tbl
}

// comparePaths returns the fraction of (src,dst) pairs whose path is
// strictly shorter under the extended topology, plus the provider-path
// fractions of the base and extended topologies. Both destination sweeps
// go through the batch route API, so the per-destination propagations fan
// out over the worker pool instead of running one at a time.
func comparePaths(base, ext *bgp.Topology, sources, dests []int) (shorter, provBase, provExt float64) {
	rbs, _ := bgp.NewRouteCache(base).RoutesToAll(context.Background(), dests, 0)
	res, _ := bgp.NewRouteCache(ext).RoutesToAll(context.Background(), dests, 0)
	total, short, pb, pe := 0, 0, 0, 0
	for i, d := range dests {
		rb, re := rbs[i], res[i]
		for _, s := range sources {
			if s == d || !rb.Reachable(s) || !re.Reachable(s) {
				continue
			}
			total++
			if re.PathLen(s) < rb.PathLen(s) {
				short++
			}
			if rb.Class(s) == bgp.ClassProvider {
				pb++
			}
			if re.Class(s) == bgp.ClassProvider {
				pe++
			}
		}
	}
	if total == 0 {
		return 0, 0, 0
	}
	return float64(short) / float64(total), float64(pb) / float64(total), float64(pe) / float64(total)
}

func seqInts(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func dedupeInts(sorted []int) []int {
	out := sorted[:0]
	for i, v := range sorted {
		if i == 0 || v != sorted[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// --- Fig. 15: threshold sweep ---

// Fig15Point is one (threshold, precision, recall) operating point
// aggregated across metros, with bootstrap confidence intervals.
type Fig15Point struct {
	Threshold           float64
	Precision, PLo, PHi float64
	Recall, RLo, RHi    float64
}

// Fig15 sweeps the link threshold λ and reports precision/recall against
// ground truth across the primary metros.
func Fig15(h *Harness) ([]Fig15Point, *Table) {
	rng := rand.New(rand.NewSource(h.Seed + 15))
	results := h.RunPrimaries()
	var pts []Fig15Point
	tbl := &Table{Title: "Fig. 15 — precision/recall vs threshold λ",
		Header: []string{"λ", "Precision", "P-CI", "Recall", "R-CI"}}
	for thr := 0.1; thr <= 1.0001; thr += 0.1 {
		var precs, recs []float64
		for _, res := range results {
			scores, labels := h.TruthLabels(res)
			c := stats.Confuse(scores, labels, thr)
			precs = append(precs, c.Precision())
			recs = append(recs, c.Recall())
		}
		p, plo, phi := stats.BootstrapCI(precs, 300, 0.05, rng)
		r, rlo, rhi := stats.BootstrapCI(recs, 300, 0.05, rng)
		pt := Fig15Point{Threshold: thr, Precision: p, PLo: plo, PHi: phi, Recall: r, RLo: rlo, RHi: rhi}
		pts = append(pts, pt)
		tbl.AddRow(fmt.Sprintf("%.1f", thr), F(p), fmt.Sprintf("[%s,%s]", F(plo), F(phi)), F(r), fmt.Sprintf("[%s,%s]", F(rlo), F(rhi)))
	}
	return pts, tbl
}

// --- Table 5: links by AS-class pair ---

// Table5 counts public-view links and metAScritic-added links (measured +
// inferred) per AS-class pair, aggregated over the primary metros.
func Table5(h *Harness) (map[[2]asgraph.Class][2]int, *Table) {
	pub, _, inf := h.linkSets(0.3)
	counts := map[[2]asgraph.Class][2]int{}
	classOf := func(i int) asgraph.Class { return h.W.G.ASes[i].Class }
	key := func(a, b asgraph.Class) [2]asgraph.Class {
		if a > b {
			a, b = b, a
		}
		return [2]asgraph.Class{a, b}
	}
	for pr := range pub {
		k := key(classOf(pr.A), classOf(pr.B))
		c := counts[k]
		c[0]++
		counts[k] = c
	}
	for pr := range inf {
		if pub[pr] {
			continue
		}
		k := key(classOf(pr.A), classOf(pr.B))
		c := counts[k]
		c[1]++
		counts[k] = c
	}
	tbl := &Table{Title: "Table 5 — links by AS-class pair (public view + added by metAScritic)",
		Header: []string{"ClassPair", "PublicView", "Added", "Increase%"}}
	var keys [][2]asgraph.Class
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a][0] != keys[b][0] {
			return keys[a][0] < keys[b][0]
		}
		return keys[a][1] < keys[b][1]
	})
	for _, k := range keys {
		c := counts[k]
		// Growth from no public link at all has no percentage.
		inc := "—"
		if c[0] > 0 {
			inc = fmt.Sprintf("%.0f", 100*float64(c[1])/float64(c[0]))
		}
		tbl.AddRow(fmt.Sprintf("%v-%v", k[0], k[1]), D(c[0]), D(c[1]), inc)
	}
	return counts, tbl
}

// --- Fig. 16: per-metro measured/inferred link novelty ---

// Fig16Row is one metro's link-novelty breakdown.
type Fig16Row struct {
	Metro           string
	Measured        int
	Inferred        int
	ExistingLinks   int // already measured/inferred at an earlier metro
	NewLinks        int
	NewInProbedASes int // new links between ASes already probed earlier
}

// Fig16 orders metros by size and classifies each metro's links as
// existing (seen at an earlier metro), new, or new between
// previously-probed ASes.
func Fig16(h *Harness) ([]Fig16Row, *Table) {
	metros := h.W.PrimaryMetros()
	sort.Slice(metros, func(a, b int) bool {
		return len(h.W.G.Metros[metros[a]].Members) > len(h.W.G.Metros[metros[b]].Members)
	})
	seen := map[asgraph.Pair]bool{}
	probed := map[int]bool{}
	var rows []Fig16Row
	tbl := &Table{Title: "Fig. 16 — measured and inferred links per metro",
		Header: []string{"Metro", "Measured", "Inferred", "Existing", "New", "NewInProbedASes"}}
	for _, metro := range metros {
		res := h.Run(metro)
		row := Fig16Row{Metro: h.MetroName(metro)}
		mls := MeasuredLinks(res)
		ils := InferredLinks(res, res.Threshold)
		row.Measured = len(mls)
		row.Inferred = len(ils)
		for _, pr := range append(append([]asgraph.Pair{}, mls...), ils...) {
			if seen[pr] {
				row.ExistingLinks++
			} else {
				row.NewLinks++
				if probed[pr.A] && probed[pr.B] {
					row.NewInProbedASes++
				}
			}
		}
		for _, pr := range mls {
			seen[pr] = true
		}
		for _, pr := range ils {
			seen[pr] = true
		}
		for _, ai := range res.Members {
			probed[ai] = true
		}
		rows = append(rows, row)
		tbl.AddRow(row.Metro, D(row.Measured), D(row.Inferred), D(row.ExistingLinks), D(row.NewLinks), D(row.NewInProbedASes))
	}
	return rows, tbl
}

// --- Table 4: the full per-metro evaluation ---

// Table4Row aggregates one metro's results.
type Table4Row struct {
	Metro            string
	NumASes          int
	Rank             int
	Splits           map[SplitKind][2]float64 // recall, precision
	ExternalRecall   map[string]float64
	CloudPrecision   float64
	CloudRecall      float64
	Measurements     int
	ExhaustiveBudget int
	TruthPrecision   float64 // vs extensive ground truth
	TruthRecall      float64
	PublicOnlyPrec   float64 // no targeted measurements
	PublicOnlyRec    float64
}

// Table4 reproduces the detailed evaluation table (Appx. E.1).
func Table4(h *Harness) ([]Table4Row, *Table) {
	var rows []Table4Row
	tbl := &Table{Title: "Table 4 — detailed per-metro performance",
		Header: []string{"Metro", "ASes", "Rank", "Strat P/R", "Rand P/R", "ComplOut P/R", "Cloud P/R", "TruthEval P/R", "PublicOnly P/R", "Meas", "Exhaustive"}}
	for _, res := range h.RunPrimaries() {
		row := Table4Row{
			Metro:          h.MetroName(res.Metro),
			NumASes:        len(res.Members),
			Rank:           res.Rank,
			Splits:         map[SplitKind][2]float64{},
			ExternalRecall: map[string]float64{},
		}
		kinds := []SplitKind{Stratified, RandomSplit, CompletelyOut}
		var specs []SplitSpec
		for _, kind := range kinds {
			specs = append(specs, SplitSpec{Kind: kind, Frac: 0.2, Seed: h.Seed + int64(res.Metro) + int64(kind)})
		}
		for i, ev := range h.EvaluateSplits(res, specs) {
			row.Splits[kinds[i]] = [2]float64{ev.Recall, ev.Precision}
		}
		for _, vs := range h.ValidationSets(res, h.Seed+int64(res.Metro)) {
			p, r := vs.Score(res, res.Threshold)
			if vs.Name == "Ground Truth (clouds)" {
				row.CloudPrecision, row.CloudRecall = p, r
			} else {
				row.ExternalRecall[vs.Name] = r
			}
		}
		// Evaluation against "extensive measurements" = ground truth, at
		// the F-maximizing threshold (same procedure as the public-only
		// row below, so the two are comparable).
		scores, labels := h.TruthLabels(res)
		tthr, _ := stats.BestF1Threshold(scores, labels)
		c := stats.Confuse(scores, labels, tthr)
		row.TruthPrecision, row.TruthRecall = c.Precision(), c.Recall()
		// No-targeted-measurements variant: public seed only.
		pubRes := h.publicOnlyResult(res.Metro)
		ps, pl := h.TruthLabels(pubRes)
		thr, _ := stats.BestF1Threshold(ps, pl)
		pc := stats.Confuse(ps, pl, thr)
		row.PublicOnlyPrec, row.PublicOnlyRec = pc.Precision(), pc.Recall()

		row.Measurements = res.Measurements
		n := len(res.Members)
		row.ExhaustiveBudget = 5 * n * (n - 1) / 2
		rows = append(rows, row)

		pr := func(k SplitKind) string {
			v := row.Splits[k]
			return F(v[1]) + "/" + F(v[0])
		}
		tbl.AddRow(row.Metro, D(row.NumASes), D(row.Rank), pr(Stratified), pr(RandomSplit), pr(CompletelyOut),
			F(row.CloudPrecision)+"/"+F(row.CloudRecall),
			F(row.TruthPrecision)+"/"+F(row.TruthRecall),
			F(row.PublicOnlyPrec)+"/"+F(row.PublicOnlyRec),
			D(row.Measurements), D(row.ExhaustiveBudget))
	}
	return rows, tbl
}

// publicOnlyResult completes a metro using only the public seed (the
// bottom rows of Table 4 / Appx. E.3 "no targeted measurements").
func (h *Harness) publicOnlyResult(metro int) *metascritic.Result {
	if r, ok := h.pubOnly[metro]; ok {
		return r
	}
	if h.pubOnly == nil {
		h.pubOnly = map[int]*metascritic.Result{}
	}
	// Complete over the public seed alone, without any budget.
	cfg := h.Cfg
	cfg.MaxMeasurements = 0
	cfg.Seed = h.Seed + int64(metro) + 500
	r, err := h.pub.Snapshot().Run(context.Background(), metro, cfg)
	if err != nil {
		// Public-only replays reuse the harness config; a failure here is a
		// programming error, matching Harness.Run.
		panic(fmt.Sprintf("eval: public-only metro %d: %v", metro, err))
	}
	h.pubOnly[metro] = r
	return r
}
