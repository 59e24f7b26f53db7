package main

import (
	"fmt"
	"io"
	"math/rand"
	"sync"
	"time"

	"metascritic"
	"metascritic/internal/als"
	"metascritic/internal/api"
	"metascritic/internal/engine"
	"metascritic/internal/forensics"
	"metascritic/internal/netsim"
	"metascritic/internal/obs"
	"metascritic/internal/probe"
	"metascritic/internal/rank"
)

// layerRow is one row of the traced run's attribution of run_s.
type layerRow struct {
	layer string
	// self is worker-seconds of the layer's own time; bytes what the
	// layer retained, where measured.
	self  time.Duration
	bytes int64
}

// metroSpans turns the engine's progress events into per-metro spans,
// with the metro's phases as children.
func (b *bench) metroSpans(parent int, events <-chan engine.Event) {
	started := map[int]time.Time{}
	for ev := range events {
		switch ev.Kind {
		case engine.MetroStarted:
			started[ev.Metro] = ev.Time
		case engine.MetroFinished, engine.MetroFailed:
			t0 := started[ev.Metro]
			id := b.tr.add(parent, "engine", "metro "+ev.Name, t0, ev.Time)
			if ev.Stats != nil {
				b.phaseSpans(id, t0, ev.Stats.Phases)
			}
		}
	}
}

// phaseSpans lays a run's sequential phases out as child spans.
func (b *bench) phaseSpans(parent int, t0 time.Time, ph metascritic.PhaseTimings) {
	for _, p := range []struct {
		layer, name string
		d           time.Duration
	}{
		{"probe", "bootstrap", ph.Bootstrap},
		{"rank", "rank-loop", ph.RankLoop},
		{"als", "completion", ph.Completion},
		{"als", "threshold", ph.Threshold},
	} {
		b.tr.add(parent, p.layer, p.name, t0, t0.Add(p.d))
		t0 = t0.Add(p.d)
	}
}

// replayLayers times single layers' public functions against the pass's
// results, and builds the layer table from them, the pass's
// Result.Timings and its route-cache statistics.
func (b *bench) replayLayers(root int, ps *pass) {
	cfg := b.wl.cfg
	g := b.w.G
	metros := sortedMetros(ps.results)
	seedOf := func(m int) int64 {
		if b.wl.single {
			return cfg.Seed
		}
		return engine.MetroSeed(cfg.Seed, m)
	}

	var (
		completeMS, warmMS []float64
		t                  metascritic.PhaseTimings
		rankD              time.Duration
	)
	for _, m := range metros {
		res := ps.results[m]
		est := res.Estimate
		t.Add(res.Timings)

		// rank: the loop's own work, its top-ups made no-ops.
		feat := metascritic.BuildFeatures(g, res.Members)
		rcfg := cfg.Rank
		rcfg.Seed = seedOf(m)
		_, d := b.tr.timed(root, "rank", "rank.Estimate", func() {
			rank.Estimate(est.E, est.Mask, feat, func([]int) int { return 0 }, rcfg)
		})
		rankD += d

		// als: the final completion at the result's rank, cold and
		// warm-started from its own factors.
		if res.FeatureWeight <= 0 {
			feat = nil
		}
		opts := als.Options{Rank: res.Rank, Lambda: res.Lambda, FeatureWeight: res.FeatureWeight,
			Iterations: cfg.Rank.Iterations + 5, Seed: seedOf(m)}
		_, dCold := b.tr.timed(root, "als", "NewProblem+CompleteFactors", func() {
			als.NewProblem(est.E, est.Mask, feat).CompleteFactors(opts, nil, nil)
		})
		_, dWarm := b.tr.timed(root, "als", "NewProblem+CompleteFactors(warm)", func() {
			als.NewProblem(est.E, est.Mask, feat).CompleteFactors(opts, nil, res.Factors)
		})
		completeMS = append(completeMS, ms(dCold))
		warmMS = append(warmMS, ms(dWarm))
	}
	tj := b.replayTrajectory(root, ps, seedOf)

	// The table splits the pass's worker-seconds (workers × wall-clock).
	// Measurement (Timings.Measure.Wall) holds route propagation, the
	// traceroute walk and the evidence store's AddTrace; selection is the
	// replayed SelectBatch calls.
	perCall := tj.selectD / time.Duration(max(tj.batches, 1))
	workerTime := ps.wall * time.Duration(ps.workers)
	measure := t.Measure.Wall
	bgpSelf := min(ps.cache.PropTime, measure)
	addSelf := min(tj.addTrace, measure-bgpSelf)
	b.table = []layerRow{
		{layer: "engine (idle workers)", self: workerTime - ps.busy},
		{layer: "probe", self: tj.newSel + tj.plan + tj.selectD, bytes: tj.selectorBytes},
		{layer: "traceroute", self: measure - bgpSelf - addSelf},
		{layer: "bgp", self: bgpSelf, bytes: ps.cache.Bytes},
		{layer: "obs", self: t.Estimate + addSelf, bytes: tj.evidence},
		{layer: "rank", self: rankD},
		{layer: "als", self: t.Completion + t.Threshold},
	}
	var attributed time.Duration
	for _, r := range b.table {
		attributed += r.self
	}
	b.table = append(b.table, layerRow{layer: "unattributed", self: workerTime - attributed})

	l := b.layer
	l.set("probe.select_batch_ms", "ms", ms(perCall))
	l.set("probe.batches", "count", float64(tj.batches))
	l.set("probe.select_share", "ratio", float64(tj.selectD)/float64(ps.busy))
	l.set("probe.new_selector_ms", "ms", ms(tj.newSel)/float64(len(metros)))
	l.set("probe.selector_mb", "MB", mb(tj.selectorBytes))
	n := float64(max(tj.traces, 1))
	l.set("traceroute.run_target_us", "us", float64(tj.runTarget.Microseconds())/n)
	l.set("obs.add_trace_us", "us", float64(tj.addTrace.Microseconds())/n)
	l.set("obs.estimate_ms", "ms", ms(tj.estimate)/float64(len(metros)))
	l.set("obs.evidence_mb", "MB", mb(tj.evidence))
	l.set("rank.loop_s", "s", t.RankLoop.Seconds())
	l.set("rank.estimate_self_s", "s", rankD.Seconds())
	l.set("als.complete_ms", "ms", median(completeMS))
	l.set("als.warm_complete_ms", "ms", median(warmMS))
	l.set("als.completion_s", "s", t.Completion.Seconds())
	l.set("als.threshold_s", "s", t.Threshold.Seconds())
	l.set("obs.refresh_s", "s", t.Estimate.Seconds())
	l.set("traceroute.traces", "count", float64(ps.issued))
	l.set("traceroute.measure_wall_s", "s", measure.Seconds())
	l.set("bgp.propagations", "count", float64(ps.cache.Computed))
	l.set("bgp.hit_ratio", "ratio", float64(ps.cache.Hits)/float64(max(ps.cache.Hits+ps.cache.Computed, 1)))
	l.set("bgp.prop_s", "s", ps.cache.PropTime.Seconds())
	l.set("bgp.evicted", "count", float64(ps.cache.Evicted))
	l.set("bgp.cache_mb", "MB", mb(ps.cache.Bytes))
	l.set("engine.utilization", "ratio", float64(ps.busy)/float64(workerTime))
	l.set("engine.busy_s", "s", ps.busy.Seconds())
	l.set("engine.metro_wall_max_s", "s", ps.metroMax.Seconds())
	l.set("trace.unattributed_share", "ratio", float64(workerTime-attributed)/float64(workerTime))

	b.replayServing(root, ps)
}

// trajectory is what replaying a pass's recorded measurements took.
type trajectory struct {
	newSel, plan, selectD, runTarget, addTrace, estimate time.Duration
	batches, traces                                      int
	// selectorBytes is what the metros' selectors retained, evidence what
	// their evidence clones grew by, both summed over the metros.
	selectorBytes, evidence int64
}

func (t *trajectory) add(o trajectory) {
	t.newSel += o.newSel
	t.plan += o.plan
	t.selectD += o.selectD
	t.runTarget += o.runTarget
	t.addTrace += o.addTrace
	t.estimate += o.estimate
	t.batches += o.batches
	t.traces += o.traces
}

// replayTrajectory replays every metro of the pass (see replayMetro) into
// its own copy-on-write clone of the set-up evidence, as each metro of a
// batch runs on its own snapshot. The route cache of the set-up engine is
// warmed with the pass's traces first, so propagation stays out of the
// replay's timings. Metros replay on as many goroutines as the pass had
// workers, so the calls contend as the run's did.
func (b *bench) replayTrajectory(root int, ps *pass, seedOf func(int) int64) trajectory {
	metros := sortedMetros(ps.results)
	for _, m := range metros {
		for _, c := range ps.results[m].Calibrations {
			b.p.Engine.RunTarget(c.VP.AS, c.VP.Metro, c.Target.AS, c.Target.Metro)
		}
	}
	type replayed struct {
		tj    trajectory
		sel   *probe.Selector
		store *obs.Store
	}
	out := make([]replayed, len(metros))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < min(ps.workers, len(metros)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range jobs {
				r := &out[k]
				r.tj, r.sel, r.store = b.replayMetro(root, metros[k], seedOf(metros[k]), ps.results[metros[k]])
			}
		}()
	}
	for k := range metros {
		jobs <- k
	}
	close(jobs)
	wg.Wait()

	var tj trajectory
	withAll := heapLive()
	for k := range out {
		tj.add(out[k].tj)
		out[k].sel = nil
	}
	withStores := heapLive()
	out = nil
	tj.selectorBytes = withAll - withStores
	tj.evidence = withStores - heapLive()
	return tj
}

// replayMetro re-issues one metro's selector calls with the inputs the
// run gave them, timing each from here, and returns the times, the
// selector and the evidence clone. Pipeline.Run draws the bootstrap plan
// and then every SelectBatch from one stream seeded with the metro's
// seed, and the rank loop's history says which rank each top-up served:
// the top-up for rank r raises every row below r to r plus the loop's
// holdout, in rounds of at most BatchSize within the budget, until no row
// falls short, a round comes back empty, two rounds in a row add no
// entry, or 16 rounds have run. Each round's measurements are taken from
// the result's record (Calibrations, in commit order): traced again on
// the set-up engine, added to the clone and reported to the selector. A
// replayed batch that differs from the record fails a check, so the
// replay is known to be the run's own calls.
func (b *bench) replayMetro(root, m int, seed int64, res *metascritic.Result) (trajectory, *probe.Selector, *obs.Store) {
	cfg := b.wl.cfg
	eng := b.p.Engine
	var tj trajectory
	store := b.p.Store.Clone()
	var est *obs.Estimate
	_, tj.estimate = b.tr.timed(root, "obs", "Store.Estimate", func() { est = store.Estimate(m, res.Members, cfg.NegPolicy) })
	var sel *probe.Selector
	_, tj.newSel = b.tr.timed(root, "probe", "NewSelector", func() { sel = probe.NewSelector(b.w.G, m, res.Members, b.p.VPs(), b.p.Hitlist) })
	rng := rand.New(rand.NewSource(seed))
	cals := res.Calibrations
	budget, next := cfg.MaxMeasurements, 0
	start := time.Now()
	commit := func(batch []probe.Measurement) bool {
		for _, mm := range batch {
			if budget <= 0 {
				return true
			}
			if !b.ck.check(next < len(cals) && recorded(cals[next], mm),
				"replay of metro %d: measurement %d differs from the run's", m, next) {
				return false
			}
			c := cals[next]
			next++
			budget--
			t0 := time.Now()
			tr := eng.RunTarget(c.VP.AS, c.VP.Metro, c.Target.AS, c.Target.Metro)
			t1 := time.Now()
			store.AddTrace(tr)
			tj.runTarget += t1.Sub(t0)
			tj.addTrace += time.Since(t1)
			tj.traces++
			sel.Report(mm, c.Informative)
		}
		return true
	}
	defer func() { b.tr.add(root, "probe", "replay "+b.w.G.Metros[m].Name, start, time.Now()) }()

	if boot := cfg.BootstrapPerStrategy; boot > 0 && budget > 0 {
		var plan []probe.Measurement
		_, tj.plan = b.tr.timed(root, "probe", "BootstrapPlan", func() { plan = sel.BootstrapPlan(boot, 600, rng) })
		if !commit(plan) {
			return tj, sel, store
		}
		store.Refresh(est)
	}
	n := len(res.Members)
	target, cur := make([]int, n), make([]int, n)
	var fill []int
	for _, step := range res.RankHistory {
		short := false
		for i := range target {
			target[i] = 0
			if est.Mask.RowCount(i) < step.Rank {
				target[i] = step.Rank + cfg.Rank.HoldoutPerRow
				short = true
			}
		}
		if !short {
			continue
		}
		stale := 0
		for round := 0; round < 16 && budget > 0; round++ {
			remaining := 0
			for i := range cur {
				cur[i] = max(0, target[i]-est.Mask.RowCount(i))
				remaining += cur[i]
			}
			if remaining == 0 {
				break
			}
			before := est.Mask.Count()
			fill = est.AppendRowFill(fill)
			var batch []probe.Measurement
			_, d := b.tr.timed(root, "probe", "SelectBatch", func() {
				batch = sel.SelectBatch(min(cfg.BatchSize, budget), cfg.Epsilon, fill, cur, est.Mask.Has, rng)
			})
			tj.selectD += d
			tj.batches++
			if len(batch) == 0 {
				break
			}
			if !commit(batch) {
				return tj, sel, store
			}
			store.Refresh(est)
			if est.Mask.Count() != before {
				stale = 0
			} else if stale++; stale >= 2 {
				break
			}
		}
	}
	b.ck.check(next == len(cals), "replay of metro %d: %d of the run's %d measurements re-issued", m, next, len(cals))
	return tj, sel, store
}

// recorded reports whether a replayed measurement is the one the run
// recorded.
func recorded(c metascritic.Calibration, m probe.Measurement) bool {
	return c.VP == m.VP && c.Target == m.Target && c.LinkI == m.LinkI && c.LinkJ == m.LinkJ && c.Strat == m.Strat
}

// replayServing times the serving layer's own builds: a State over the
// pass's results, and hijack forensics called directly.
func (b *bench) replayServing(root int, ps *pass) {
	_, d := b.tr.timed(root, "api", "api.NewState", func() { api.NewState(2, b.wl.world, b.p, ps.results) })
	b.layer.set("api.new_state_ms", "ms", ms(d))

	g := b.w.G
	prim := b.w.PrimaryMetros()
	var analyze []float64
	for _, v := range prim {
		for _, a := range prim {
			if v == a || (ps.results[v] == nil && ps.results[a] == nil) || len(analyze) >= 5 {
				continue
			}
			var results []*metascritic.Result
			thr := 0.0
			for _, m := range []int{v, a} {
				if r := ps.results[m]; r != nil {
					results = append(results, r)
					thr = max(thr, r.Threshold)
				}
			}
			var err error
			_, d := b.tr.timed(root, "forensics", "forensics.Analyze", func() {
				_, err = forensics.Analyze(b.w, g.Metros[v], g.Metros[a], results, thr)
			})
			b.ck.check(err == nil, "forensics.Analyze(%s, %s): %v", g.Metros[v].Name, g.Metros[a].Name, err)
			analyze = append(analyze, ms(d))
		}
	}
	b.layer.set("forensics.analyze_ms", "ms", median(analyze))
}

// replayEvolve times one evolution batch (the churn phase's spec) on a
// freshly generated copy of the workload's world.
func (b *bench) replayEvolve(root int) {
	w := metascritic.GenerateWorld(b.wl.world)
	var err error
	_, d := b.tr.timed(root, "netsim", "World.Evolve", func() {
		_, err = w.Evolve(rand.New(rand.NewSource(b.seed)), netsim.EvolveSpec{LinkDowns: 20, Depeerings: 5, LinkUps: 20, IXPJoins: 5})
	})
	b.ck.check(err == nil, "World.Evolve: %v", err)
	b.layer.set("netsim.evolve_ms", "ms", ms(d))
}

// printLayerTable prints where the traced pass's worker-seconds went,
// layer by layer, with their share of workers × run_s.
func (b *bench) printLayerTable(w io.Writer) {
	if len(b.table) == 0 {
		return
	}
	var total time.Duration
	for _, r := range b.table {
		total += r.self
	}
	fmt.Fprintf(w, "layer attribution of run_s (%s, traced pass, worker-seconds)\n", b.wl.name)
	fmt.Fprintf(w, "%-22s %10s %8s %10s\n", "layer", "self_s", "share", "bytes_MB")
	for _, r := range b.table {
		bytes := "-"
		if r.bytes > 0 {
			bytes = fmt.Sprintf("%.1f", mb(r.bytes))
		}
		fmt.Fprintf(w, "%-22s %10.3f %7.1f%% %10s\n", r.layer, r.self.Seconds(), 100*float64(r.self)/float64(total), bytes)
	}
	fmt.Fprintf(w, "probe share of busy time: %.1f%%\n", 100*b.layer["probe.select_share"].Value)
	fmt.Fprintf(w, "tracing overhead: traced run_s - untraced run_s = %+.3fs\n", b.layer["trace.overhead_s"].Value)
}
