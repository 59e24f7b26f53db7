package engine

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"time"

	"metascritic"
	"metascritic/internal/netsim"
)

// testPipeline builds a small world with seeded public measurements.
func testPipeline(t testing.TB, seed int64, scale float64) *metascritic.Pipeline {
	t.Helper()
	w := netsim.Generate(netsim.Config{Seed: seed, Metros: netsim.DefaultMetros(scale)})
	p := metascritic.NewPipeline(w)
	rng := rand.New(rand.NewSource(seed))
	p.SeedPublicMeasurements(6, rng)
	return p
}

// testConfig returns a laptop-scale base config.
func testConfig(seed int64) metascritic.Config {
	cfg := metascritic.DefaultConfig()
	cfg.BatchSize = 60
	cfg.MaxMeasurements = 900
	cfg.Rank.MaxRank = 6
	cfg.Rank.Iterations = 4
	cfg.Seed = seed
	return cfg
}

// twoMetros returns the first two primary metros in ascending order.
func twoMetros(t *testing.T, p *metascritic.Pipeline) []int {
	t.Helper()
	metros := p.World.PrimaryMetros()
	sort.Ints(metros)
	if len(metros) < 2 {
		t.Fatalf("world has %d primary metros, need 2", len(metros))
	}
	return metros[:2]
}

func TestRunAllMatchesSequential(t *testing.T) {
	p := testPipeline(t, 7, 0.1)
	cfg := testConfig(7)
	metros := twoMetros(t, p)

	mr, err := New(p).RunAll(context.Background(), Config{
		Base:    cfg,
		Metros:  metros,
		Workers: runtime.GOMAXPROCS(0),
	})
	if err != nil {
		t.Fatalf("RunAll: %v", err)
	}

	// The documented contract: each metro equals a sequential run over a
	// snapshot of the same baseline with the derived per-metro seed.
	for _, m := range metros {
		scfg := cfg
		scfg.Seed = MetroSeed(cfg.Seed, m)
		want, err := p.Snapshot().Run(context.Background(), m, scfg)
		if err != nil {
			t.Fatalf("sequential metro %d: %v", m, err)
		}
		got := mr.Result(m)
		if got == nil {
			t.Fatalf("metro %d missing from MultiResult", m)
		}
		if got.Rank != want.Rank {
			t.Errorf("metro %d rank: concurrent %d, sequential %d", m, got.Rank, want.Rank)
		}
		if got.Measurements != want.Measurements {
			t.Errorf("metro %d measurements: concurrent %d, sequential %d", m, got.Measurements, want.Measurements)
		}
		if got.Threshold != want.Threshold {
			t.Errorf("metro %d threshold: concurrent %v, sequential %v", m, got.Threshold, want.Threshold)
		}
		if len(got.Ratings.Data) != len(want.Ratings.Data) {
			t.Fatalf("metro %d ratings size mismatch", m)
		}
		for i := range got.Ratings.Data {
			if got.Ratings.Data[i] != want.Ratings.Data[i] {
				t.Fatalf("metro %d ratings diverge at %d: %v vs %v",
					m, i, got.Ratings.Data[i], want.Ratings.Data[i])
			}
		}
	}

	// RunAll must not leak targeted traceroutes into the base store: a
	// fresh snapshot still matches the pre-batch baseline.
	if mr.Stats.Measurements == 0 {
		t.Fatalf("no measurements recorded in stats")
	}
	if mr.Stats.Workers < 1 {
		t.Fatalf("workers = %d", mr.Stats.Workers)
	}
	// The aggregated measurement-pipeline stats must tie out: nothing is
	// cancelled, so per-metro launched counts equal the metro's
	// measurements and sum to the batch's total, and the batch-level
	// Merge reproduces that sum.
	launched := 0
	for _, ms := range mr.Stats.PerMetro {
		if ms.Phases.Measure.Launched != ms.Measurements {
			t.Errorf("metro %d: Measure.Launched %d != Measurements %d",
				ms.Metro, ms.Phases.Measure.Launched, ms.Measurements)
		}
		launched += ms.Phases.Measure.Launched
	}
	if launched != mr.Stats.Measurements {
		t.Errorf("summed Measure.Launched %d != Stats.Measurements %d", launched, mr.Stats.Measurements)
	}
	if mr.Stats.Phases.Measure.Launched != launched {
		t.Errorf("aggregated Measure.Launched %d != summed %d", mr.Stats.Phases.Measure.Launched, launched)
	}
	// The Estimate phase (time building/refreshing E_m) must be measured
	// per metro and aggregate across the batch like the other phases.
	var estSum time.Duration
	for _, ms := range mr.Stats.PerMetro {
		if ms.Phases.Estimate <= 0 {
			t.Errorf("metro %d: Phases.Estimate not recorded", ms.Metro)
		}
		estSum += ms.Phases.Estimate
	}
	if mr.Stats.Phases.Estimate != estSum {
		t.Errorf("aggregated Phases.Estimate %v != summed %v", mr.Stats.Phases.Estimate, estSum)
	}
}

func TestRunAllSeedsDifferPerMetro(t *testing.T) {
	base := int64(3)
	seen := map[int64]bool{}
	for _, m := range []int{0, 1, 2, 5, 11} {
		s := MetroSeed(base, m)
		if seen[s] {
			t.Fatalf("duplicate derived seed %d for metro %d", s, m)
		}
		seen[s] = true
	}
}

func TestRunAllCancellation(t *testing.T) {
	p := testPipeline(t, 9, 0.12)
	cfg := testConfig(9)
	cfg.MaxMeasurements = 40000 // big enough that a full run takes a while
	cfg.Rank.MaxRank = 24
	cfg.Rank.Iterations = 10

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Millisecond)
	defer cancel()
	start := time.Now()
	mr, err := New(p).RunAll(ctx, Config{Base: cfg, Workers: 2})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatalf("RunAll returned nil error under a 60ms deadline")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error does not wrap ctx.Err(): %v", err)
	}
	// Cancellation is polled per measurement and per estimation round, so
	// the abort must land promptly, not after the remaining budget.
	if elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v, want prompt abort", elapsed)
	}
	// The batch statistics survive the abort: the MultiResult comes back
	// alongside the error, and any run the deadline interrupted mid-phase
	// is marked Aborted with the telemetry of the phases that did run.
	if mr == nil {
		t.Fatal("cancelled RunAll returned a nil MultiResult")
	}
	for _, ms := range mr.Stats.PerMetro {
		if ms.Aborted && ms.Phases.Total() <= 0 {
			t.Fatalf("aborted metro %s carries no partial phase timings", ms.Name)
		}
		if ms.Aborted && mr.Results[ms.Metro] != nil {
			t.Fatalf("aborted metro %s leaked a result into Results", ms.Name)
		}
	}
}

func TestRunAllCancelledBeforeStart(t *testing.T) {
	p := testPipeline(t, 5, 0.1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := New(p).RunAll(ctx, Config{Base: testConfig(5), Workers: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled context: got %v, want context.Canceled", err)
	}
}

func TestPriorSharingReducesBootstrap(t *testing.T) {
	metrosOf := func(p *metascritic.Pipeline) []int { return p.World.PrimaryMetros() }

	run := func(share bool) *MultiResult {
		p := testPipeline(t, 11, 0.1)
		metros := metrosOf(p)
		sort.Ints(metros)
		mr, err := New(p).RunAll(context.Background(), Config{
			Base:        testConfig(11),
			Metros:      metros[:2],
			Workers:     1, // fixed scheduling order: second metro sees the first's rates
			SharePriors: share,
		})
		if err != nil {
			t.Fatalf("RunAll(share=%v): %v", share, err)
		}
		return mr
	}

	isolated := run(false)
	shared := run(true)

	second := shared.Metros[1]
	if !shared.Stats.PerMetro[1].UsedPriors {
		t.Fatalf("second metro did not use pooled priors")
	}
	if shared.Stats.PerMetro[0].UsedPriors {
		t.Fatalf("first metro used priors before any were published")
	}
	isoBoot := isolated.Result(second).BootstrapMeasurements
	sharedBoot := shared.Result(second).BootstrapMeasurements
	if sharedBoot >= isoBoot {
		t.Fatalf("prior sharing did not reduce bootstrap: %d (shared) vs %d (isolated)", sharedBoot, isoBoot)
	}
}

func TestRunAllValidation(t *testing.T) {
	p := testPipeline(t, 2, 0.1)
	eng := New(p)
	ctx := context.Background()

	bad := testConfig(2)
	bad.BatchSize = 0
	if _, err := eng.RunAll(ctx, Config{Base: bad}); !errors.Is(err, metascritic.ErrInvalidConfig) {
		t.Fatalf("zero BatchSize: got %v, want ErrInvalidConfig", err)
	}

	if _, err := eng.RunAll(ctx, Config{Base: testConfig(2), Metros: []int{0, 0}}); !errors.Is(err, metascritic.ErrInvalidConfig) {
		t.Fatalf("duplicate metro: got %v, want ErrInvalidConfig", err)
	}

	if _, err := eng.RunAll(ctx, Config{Base: testConfig(2), Metros: []int{-1}}); !errors.Is(err, metascritic.ErrInvalidConfig) {
		t.Fatalf("negative metro: got %v, want ErrInvalidConfig", err)
	}

	if _, err := eng.RunAll(ctx, Config{Base: testConfig(2), Workers: -1}); !errors.Is(err, metascritic.ErrInvalidConfig) {
		t.Fatalf("negative Workers: got %v, want ErrInvalidConfig", err)
	}

	withPriors := testConfig(2)
	var zeros [144]float64
	withPriors.Priors = &zeros
	if _, err := eng.RunAll(ctx, Config{Base: withPriors, SharePriors: true}); !errors.Is(err, metascritic.ErrInvalidConfig) {
		t.Fatalf("SharePriors with explicit priors: got %v, want ErrInvalidConfig", err)
	}
}

func TestRunAllEvents(t *testing.T) {
	p := testPipeline(t, 13, 0.1)
	metros := twoMetros(t, p)

	events := make(chan Event, 64)
	mr, err := New(p).RunAll(context.Background(), Config{
		Base:    testConfig(13),
		Metros:  metros,
		Workers: 2,
		Events:  events,
	})
	if err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	close(events)

	started, finished := map[int]int{}, map[int]int{}
	for ev := range events {
		switch ev.Kind {
		case MetroStarted:
			started[ev.Metro]++
		case MetroFinished:
			finished[ev.Metro]++
			if ev.Stats == nil {
				t.Fatalf("MetroFinished without stats for metro %d", ev.Metro)
			}
			if ev.Stats.Wall <= 0 {
				t.Fatalf("metro %d finished with non-positive wall %v", ev.Metro, ev.Stats.Wall)
			}
		case MetroFailed:
			t.Fatalf("unexpected failure event for metro %d: %v", ev.Metro, ev.Err)
		}
	}
	for _, m := range metros {
		if started[m] != 1 || finished[m] != 1 {
			t.Fatalf("metro %d: %d started / %d finished events", m, started[m], finished[m])
		}
	}
	if got := len(mr.Stats.PerMetro); got != len(metros) {
		t.Fatalf("PerMetro stats has %d entries, want %d", got, len(metros))
	}
	u := mr.Stats.Utilization()
	if u <= 0 || u > 1.5 { // allow timer noise above 1.0
		t.Fatalf("utilization %v out of range", u)
	}
}

func TestEngineRunFeedsPriors(t *testing.T) {
	p := testPipeline(t, 17, 0.1)
	metros := twoMetros(t, p)
	eng := New(p)
	ctx := context.Background()

	first, err := eng.Run(ctx, metros[0], testConfig(17))
	if err != nil {
		t.Fatalf("first metro: %v", err)
	}
	if eng.Priors().Count() != 1 {
		t.Fatalf("prior store count = %d after first run", eng.Priors().Count())
	}
	second, err := eng.Run(ctx, metros[1], testConfig(17))
	if err != nil {
		t.Fatalf("second metro: %v", err)
	}
	// The second run was seeded from the first's rates, so its bootstrap
	// is the reduced one-fifth schedule.
	if second.BootstrapMeasurements >= first.BootstrapMeasurements &&
		first.BootstrapMeasurements > 0 {
		t.Fatalf("second metro bootstrap %d not reduced vs first %d",
			second.BootstrapMeasurements, first.BootstrapMeasurements)
	}
}

func TestPriorStore(t *testing.T) {
	s := NewPriorStore()
	if p, n := s.Pooled(); p != nil || n != 0 {
		t.Fatalf("empty store pooled = (%v, %d)", p, n)
	}
	var a, b [144]float64
	for i := range a {
		a[i] = 0.2
		b[i] = 0.6
	}
	s.Add(a)
	s.Add(b)
	p, n := s.Pooled()
	if n != 2 {
		t.Fatalf("count %d", n)
	}
	for i := range p {
		if d := p[i] - 0.4; d > 1e-12 || d < -1e-12 {
			t.Fatalf("pooled[%d] = %v, want 0.4", i, p[i])
		}
	}
	// The returned array is a copy: mutating it must not corrupt the store.
	p[0] = 99
	if q, _ := s.Pooled(); q[0] != 0.4 {
		t.Fatalf("Pooled returned shared state")
	}
}
