package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"sort"
	"time"

	"metascritic"
	"metascritic/internal/bgp"
	"metascritic/internal/engine"
	"metascritic/internal/traceroute"
)

// workload is one named set of inputs. Its world and the public
// measurements its pipeline is seeded with are fixed (inputSeed), so
// every run times the same cold inference pass: across seedings that
// pass's wall-clock moves by about ±10%, more than run_s may drift
// between commits. -seed draws the serving inputs: the metros and ASes
// of the read requests.
type workload struct {
	name  string
	world metascritic.WorldConfig
	// cacheBudget bounds the route cache in bytes (0 = unbounded).
	cacheBudget int64
	// seedPerProbe > 0 seeds with SeedPublicMeasurements(seedPerProbe);
	// otherwise about seedTraces probe traces are sampled.
	seedPerProbe int
	seedTraces   int
	cfg          metascritic.Config
	// single runs one cold Pipeline.Run of the head primary metro instead
	// of an engine.RunAll over every primary metro.
	single bool
	// f1Floor is the lowest acceptable link F1 of the inference pass.
	f1Floor float64
	// serveShare of the run's seconds goes to the serving phase; the cold
	// inference passes take the rest.
	serveShare float64
}

const (
	// Set-up repeats until it has run at least minSetups times and for at
	// least minSetupTime; setup_s is the median.
	minSetups    = 3
	minSetupTime = 2 * time.Second
	runWorkers   = 2
	inputSeed    = 1
	// At least minPasses cold passes run, so run_s is a median.
	minPasses = 3
)

func campaignConfig(budget int) metascritic.Config {
	cfg := metascritic.DefaultConfig()
	cfg.MaxMeasurements = budget
	cfg.BatchSize = 150
	cfg.Rank.MaxRank = 10
	cfg.Rank.Iterations = 5
	return cfg
}

func internetConfig() metascritic.Config {
	cfg := metascritic.DefaultConfig()
	cfg.MaxMeasurements = 2000
	cfg.Rank.MaxRank = 12
	cfg.Rank.Iterations = 6
	return cfg
}

var workloads = map[string]*workload{
	"campaign": {
		name:         "campaign",
		world:        metascritic.WorldConfig{Seed: 1, Metros: metascritic.DefaultMetros(0.5)},
		seedPerProbe: 4,
		cfg:          campaignConfig(2000),
		f1Floor:      0.35,
		serveShare:   0.5,
	},
	"internet10k": {
		name:        "internet10k",
		world:       metascritic.WorldConfig{Seed: 1, Metros: metascritic.InternetMetros(10000)},
		cacheBudget: 32 << 20,
		seedTraces:  800,
		cfg:         internetConfig(),
		single:      true,
		f1Floor:     0.04,
		serveShare:  0.5,
	},
	"serve": {
		name:         "serve",
		world:        metascritic.WorldConfig{Seed: 1, Metros: metascritic.DefaultMetros(0.5)},
		seedPerProbe: 4,
		cfg:          campaignConfig(1000),
		f1Floor:      0.25,
		serveShare:   0.85,
	},
}

// pass is one cold inference pass: a RunAll batch or a single Run.
type pass struct {
	wall    time.Duration
	results map[int]*metascritic.Result
	// busy is the summed per-metro wall-clock; workers the pool size.
	busy     time.Duration
	workers  int
	metroMax time.Duration
	cache    bgp.CacheStats
	issued   int
	digest   uint64
	f1       float64
}

// bench is one benchmark process: one workload, one seed.
type bench struct {
	wl      *workload
	seed    int64
	budget  time.Duration
	tr      *tracer
	ck      checks
	e2e     metricSet
	layer   metricSet
	started time.Time

	w *metascritic.World
	p *metascritic.Pipeline

	gens   []float64 // world generation seconds, per set-up
	passes []*pass
	// table is the traced pass's attribution of its worker-seconds.
	table []layerRow
}

func (b *bench) run() {
	root := b.tr.add(-1, "bench", b.wl.name, b.started, b.started)
	setups := b.setup(root)
	b.e2e.set("setup_s", "s", median(setups))
	b.layer.set("netsim.generate_s", "s", median(b.gens))

	if !resetPeakRSS() {
		b.ck.check(false, "resetting the resident high-water mark via /proc/self/clear_refs")
	}

	b.measurePasses(root)
	last := b.passes[len(b.passes)-1]
	b.e2e.set("link_f1", "ratio", last.f1)
	b.ck.check(last.f1 >= b.wl.f1Floor, "link F1 %.4f below the floor %.2f", last.f1, b.wl.f1Floor)
	for _, ps := range b.passes {
		b.ck.check(ps.digest == last.digest, "pass result digest %x differs from %x for the same inputs", ps.digest, last.digest)
	}

	if b.tr.on {
		b.replayLayers(root, last)
	}
	b.servePhase(root, last.results)
	if b.tr.on {
		b.replayEvolve(root)
	}
	b.e2e.set("peak_rss_mb", "MB", peakRSSMB())
}

// setup generates the world and builds and seeds the pipeline, at least
// minSetups times and for at least minSetupTime, keeping the last; it
// returns each set-up's seconds.
func (b *bench) setup(root int) []float64 {
	var out []float64
	start := time.Now()
	for len(out) < minSetups || time.Since(start) < minSetupTime {
		b.w, b.p = nil, nil
		settle()
		t0 := time.Now()
		var w *metascritic.World
		b.tr.timed(root, "netsim", "GenerateWorld", func() { w = metascritic.GenerateWorld(b.wl.world) })
		b.gens = append(b.gens, time.Since(t0).Seconds())
		p := metascritic.NewPipeline(w)
		p.SetRouteCacheBudget(b.wl.cacheBudget)
		rng := rand.New(rand.NewSource(inputSeed))
		b.tr.timed(root, "obs", "SeedPublicMeasurements", func() {
			if b.wl.seedPerProbe > 0 {
				p.SeedPublicMeasurements(b.wl.seedPerProbe, rng)
				return
			}
			stride := len(w.Probes) / b.wl.seedTraces
			if stride < 1 {
				stride = 1
			}
			for i := 0; i < len(w.Probes); i += stride {
				pr := w.Probes[i]
				if dst := rng.Intn(w.G.N()); dst != pr.AS {
					p.Store.AddTrace(p.Engine.Run(pr.AS, pr.Metro, dst))
				}
			}
		})
		b.w, b.p = w, p
		out = append(out, time.Since(t0).Seconds())
	}
	return out
}

// measurePasses runs cold inference passes for the run's seconds not
// given to serving: at least minPasses, and none that would start too
// late to finish inside that share. In a traced run only the last pass
// is traced, so trace.overhead_s compares it with the untraced ones.
func (b *bench) measurePasses(root int) {
	budget := time.Duration((1 - b.wl.serveShare) * float64(b.budget))
	start := time.Now()
	var walls []float64
	for len(walls) < minPasses || time.Since(start)+b.passes[len(b.passes)-1].wall <= budget {
		settle()
		ps := b.infer(root, false)
		b.passes = append(b.passes, ps)
		walls = append(walls, ps.wall.Seconds())
	}
	b.e2e.set("run_s", "s", median(walls))
	fmt.Fprintf(os.Stderr, "perfbench: %s pass wall-clocks (s): %.3f\n", b.wl.name, walls)
	if b.tr.on {
		settle()
		ps := b.infer(root, true)
		b.passes = append(b.passes, ps)
		b.layer.set("trace.overhead_s", "s", ps.wall.Seconds()-median(walls))
	}
	if !b.wl.single {
		b.checkSingleMetro(root, b.passes[len(b.passes)-1])
	}
}

// fresh returns a pipeline over the set-up world and evidence with a new
// traceroute engine, so its route cache starts cold.
func (b *bench) fresh() *metascritic.Pipeline {
	fp := &metascritic.Pipeline{
		World:   b.w,
		Engine:  traceroute.NewEngine(b.w),
		Store:   b.p.Store.Clone(),
		Hitlist: b.p.Hitlist,
	}
	fp.SetRouteCacheBudget(b.wl.cacheBudget)
	return fp
}

// infer runs one cold inference pass. When traced is set, per-metro spans
// are built from the engine's progress events (which cost the engine
// nothing, so the pass still times the untraced program).
func (b *bench) infer(root int, traced bool) *pass {
	fp := b.fresh()
	ctx := context.Background()
	ps := &pass{workers: runWorkers}
	if b.wl.single {
		m := b.w.PrimaryMetros()[0]
		t0 := time.Now()
		res, err := fp.Run(ctx, m, b.wl.cfg)
		ps.wall = time.Since(t0)
		ps.busy, ps.metroMax, ps.workers = ps.wall, ps.wall, 1
		if traced {
			id := b.tr.add(root, "pipeline", "Pipeline.Run", t0, t0.Add(ps.wall))
			if res != nil {
				b.phaseSpans(id, t0, res.Timings)
			}
		}
		b.ck.check(err == nil, "Pipeline.Run: %v", err)
		ps.results = map[int]*metascritic.Result{m: res}
	} else {
		var events chan engine.Event
		if traced {
			// Two events per metro (started, finished or failed); the
			// buffer holds them all, so the engine never waits on us.
			events = make(chan engine.Event, 2*len(b.w.PrimaryMetros()))
		}
		t0 := time.Now()
		mr, err := engine.New(fp).RunAll(ctx, engine.Config{Base: b.wl.cfg, Workers: runWorkers, Events: events})
		ps.wall = time.Since(t0)
		b.ck.check(err == nil, "engine.RunAll: %v", err)
		if mr != nil {
			ps.results = mr.Results
			ps.busy = mr.Stats.Busy
			ps.workers = mr.Stats.Workers
			for _, st := range mr.Stats.PerMetro {
				if st.Wall > ps.metroMax {
					ps.metroMax = st.Wall
				}
			}
		}
		if traced {
			close(events)
			b.metroSpans(b.tr.add(root, "engine", "engine.RunAll", t0, t0.Add(ps.wall)), events)
		}
	}
	ps.cache = fp.Engine.Cache.Stats()
	ps.issued = fp.Engine.Issued()
	ps.digest = digest(ps.results)
	ps.f1 = linkF1(b.w, ps.results)
	return ps
}

// checkSingleMetro re-runs the batch's smallest metro alone through
// engine.Run: by the engine's determinism contract its result must equal
// the batch's.
func (b *bench) checkSingleMetro(root int, ps *pass) {
	small := -1
	for m := range ps.results {
		if small < 0 || len(ps.results[m].Members) < len(ps.results[small].Members) ||
			(len(ps.results[m].Members) == len(ps.results[small].Members) && m < small) {
			small = m
		}
	}
	if small < 0 {
		return
	}
	var res *metascritic.Result
	var err error
	b.tr.timed(root, "engine", "engine.Run", func() {
		res, err = engine.New(b.fresh()).Run(context.Background(), small, b.wl.cfg)
	})
	if !b.ck.check(err == nil, "engine.Run(%d): %v", small, err) {
		return
	}
	want := digest(map[int]*metascritic.Result{small: ps.results[small]})
	got := digest(map[int]*metascritic.Result{small: res})
	b.ck.check(got == want, "engine.Run(%d) digest %x differs from the batch's %x", small, got, want)
}

// digest hashes every deterministic field of a result set (everything
// but the timing telemetry).
func digest(results map[int]*metascritic.Result) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	putF := func(f float64) { put(math.Float64bits(f)) }
	var metros []int
	for m := range results {
		metros = append(metros, m)
	}
	sort.Ints(metros)
	for _, m := range metros {
		r := results[m]
		put(uint64(m))
		if r == nil {
			put(math.MaxUint64)
			continue
		}
		put(uint64(len(r.Members)))
		for _, a := range r.Members {
			put(uint64(a))
		}
		put(uint64(r.Rank))
		put(uint64(r.Measurements))
		put(uint64(r.BootstrapMeasurements))
		putF(r.Threshold)
		putF(r.Lambda)
		putF(r.FeatureWeight)
		if r.Ratings != nil {
			for _, v := range r.Ratings.Data {
				putF(v)
			}
		}
	}
	return h.Sum64()
}

// linkF1 scores the links each result asserts (ratings at or above its
// threshold) against the metro's ground truth, micro-averaged over the
// result set.
func linkF1(w *metascritic.World, results map[int]*metascritic.Result) float64 {
	tp, fp, fn := 0, 0, 0
	for m, r := range results {
		if r == nil || r.Ratings == nil {
			continue
		}
		truth := w.Truths[m]
		pred := map[[2]int]bool{}
		for _, pr := range r.LinksAbove(r.Threshold) {
			pred[[2]int{pr.A, pr.B}] = true
		}
		for i := 0; i < len(r.Members); i++ {
			for j := i + 1; j < len(r.Members); j++ {
				a, b := r.Members[i], r.Members[j]
				real := truth != nil && truth.Has(a, b)
				p := pred[[2]int{a, b}]
				switch {
				case p && real:
					tp++
				case p:
					fp++
				case real:
					fn++
				}
			}
		}
	}
	if tp == 0 {
		return 0
	}
	return 2 * float64(tp) / float64(2*tp+fp+fn)
}
