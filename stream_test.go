package metascritic

// Streaming-pipeline tests: ApplyEvolution must keep every derived layer
// (BGP topology, route cache, address plan, hitlist, evidence epoch)
// equivalent to rebuilding it from the mutated world, and Rescore must
// measure exactly what a cold full rerun over the same evidence measures.

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"
	"time"

	"metascritic/internal/bgp"
	"metascritic/internal/mat"
	"metascritic/internal/netsim"
	"metascritic/internal/obs"
)

// requireRoutesMatchWorld propagates every destination on a cold topology
// rebuilt from the (mutated) world and compares it against the pipeline's
// live, incrementally-maintained cache — adjacency mirroring, scoped
// invalidation and tie-breaking all have to line up for this to hold.
func requireRoutesMatchWorld(t *testing.T, p *Pipeline) {
	t.Helper()
	cold := bgp.NewRouteCache(bgp.FromGraph(p.World.G))
	for d := 0; d < p.World.G.N(); d++ {
		got, want := p.Engine.Cache.RoutesTo(d), cold.RoutesTo(d)
		if got.Len() != want.Len() {
			t.Fatalf("dest %d: live cache has %d ASes, cold rebuild %d", d, got.Len(), want.Len())
		}
		for a := 0; a < got.Len(); a++ {
			if got.At(a) != want.At(a) {
				t.Fatalf("dest %d: AS %d route %+v, cold rebuild %+v", d, a, got.At(a), want.At(a))
			}
		}
	}
}

func TestApplyEvolutionMirrorsWorld(t *testing.T) {
	w := smallWorld(11)
	p := NewPipeline(w)
	rng := rand.New(rand.NewSource(1))
	p.SeedPublicMeasurements(4, rng) // warm the route cache with real traffic

	spec := netsim.EvolveSpec{LinkDowns: 12, Depeerings: 4, LinkUps: 12, NewASes: 3, IXPJoins: 4}
	hitlistBefore := len(p.Hitlist)
	for epoch := uint32(1); epoch <= 3; epoch++ {
		batch, st, err := p.Evolve(rng, spec)
		if err != nil {
			t.Fatalf("epoch %d: Evolve: %v", epoch, err)
		}
		if w.Epoch != epoch || st.Epoch != epoch {
			t.Fatalf("epoch %d: world at %d, stats say %d", epoch, w.Epoch, st.Epoch)
		}
		if p.Store.Epoch() != epoch {
			t.Fatalf("epoch %d: evidence store at epoch %d", epoch, p.Store.Epoch())
		}
		if st.Events != len(batch.Events) || st.NewASes == 0 || st.NewAddresses == 0 {
			t.Fatalf("epoch %d: implausible stats %+v", epoch, st)
		}
		requireRoutesMatchWorld(t, p)
		// Keep traffic flowing so the next epoch invalidates a warm cache.
		p.SeedPublicMeasurements(2, rng)
	}
	if len(p.Hitlist) <= hitlistBefore {
		t.Fatalf("hitlist did not grow with responsive arrivals (%d -> %d)", hitlistBefore, len(p.Hitlist))
	}
	if got := p.Engine.Cache.Stats().Epoch; got == 0 {
		t.Fatalf("route cache epoch never advanced")
	}
}

// TestApplyEvolutionScopedInvalidation pins that a no-arrival batch keeps
// some cached destinations alive (the point of scoped invalidation) while
// still serving routes identical to a cold rebuild.
func TestApplyEvolutionScopedInvalidation(t *testing.T) {
	w := smallWorld(13)
	p := NewPipeline(w)
	rng := rand.New(rand.NewSource(3))
	p.SeedPublicMeasurements(6, rng)

	spec := netsim.EvolveSpec{LinkDowns: 6, Depeerings: 2, LinkUps: 6}
	_, st, err := p.Evolve(rng, spec)
	if err != nil {
		t.Fatalf("Evolve: %v", err)
	}
	if st.NewASes != 0 {
		t.Fatalf("spec asked for no arrivals, got %d", st.NewASes)
	}
	if st.Retained == 0 {
		t.Fatalf("scoped invalidation retained nothing (invalidated %d)", st.Invalidated)
	}
	requireRoutesMatchWorld(t, p)
}

func TestApplyEvolutionRejectsEpochSkew(t *testing.T) {
	p := NewPipeline(smallWorld(14))
	if _, err := p.ApplyEvolution(&netsim.EventBatch{Epoch: 5}); !errors.Is(err, ErrInvalidConfig) {
		t.Fatalf("stale batch: got %v, want ErrInvalidConfig", err)
	}
}

// TestRescoreMatchesColdRerun is the acceptance pin of the streaming PR:
// after a churn batch and a round of post-churn traces, the incremental
// re-score's measured estimate must be byte-identical to a cold full
// rerun (rank sweep and all) over the same evidence.
func TestRescoreMatchesColdRerun(t *testing.T) {
	w := smallWorld(12)
	p := NewPipeline(w)
	rng := rand.New(rand.NewSource(2))
	p.SeedPublicMeasurements(6, rng)

	metro := w.G.MetroOfName("Tokyo").Index
	cfg := DefaultConfig()
	cfg.BatchSize = 80
	cfg.MaxMeasurements = 1200
	cfg.Rank.MaxRank = 8
	cfg.Rank.Iterations = 5
	prev := mustRun(t, p, metro, cfg)

	// Churn without arrivals so prev's factors stay dimensionally
	// compatible and the warm path is exercised.
	spec := netsim.EvolveSpec{LinkDowns: 10, Depeerings: 3, LinkUps: 10, IXPJoins: 3}
	if _, _, err := p.Evolve(rng, spec); err != nil {
		t.Fatalf("Evolve: %v", err)
	}
	p.SeedPublicMeasurements(4, rng)

	ctx := context.Background()
	t0 := time.Now()
	inc, err := p.Rescore(ctx, prev, cfg)
	incWall := time.Since(t0)
	if err != nil {
		t.Fatalf("Rescore: %v", err)
	}

	coldCfg := cfg
	coldCfg.MaxMeasurements = 0
	coldCfg.BootstrapPerStrategy = 0
	t0 = time.Now()
	cold, err := p.Snapshot().Run(ctx, metro, coldCfg)
	coldWall := time.Since(t0)
	if err != nil {
		t.Fatalf("cold Run: %v", err)
	}
	t.Logf("incremental %v vs cold %v (%.1f%%)", incWall, coldWall, 100*float64(incWall)/float64(coldWall))

	// Byte-identical estimates: same value in every cell, same mask.
	ie, ce := inc.Estimate, cold.Estimate
	requireSameCells(t, ie.E, ce.E)
	if ie.Mask.Count() != ce.Mask.Count() {
		t.Fatalf("mask counts differ: %d vs %d", ie.Mask.Count(), ce.Mask.Count())
	}
	for i := 0; i < ie.Mask.N(); i++ {
		for j := i + 1; j < ie.Mask.N(); j++ {
			if ie.Mask.Has(i, j) != ce.Mask.Has(i, j) {
				t.Fatalf("mask diverges at (%d,%d)", i, j)
			}
		}
	}

	if inc.Rank != prev.Rank || inc.Lambda != prev.Lambda || inc.FeatureWeight != prev.FeatureWeight {
		t.Fatalf("Rescore changed warm hyperparameters: rank %d->%d λ %v->%v fw %v->%v",
			prev.Rank, inc.Rank, prev.Lambda, inc.Lambda, prev.FeatureWeight, inc.FeatureWeight)
	}
	if inc.Measurements != 0 {
		t.Fatalf("Rescore issued %d measurements", inc.Measurements)
	}
	if inc.Factors == nil {
		t.Fatalf("Rescore returned no factors for the next warm start")
	}
	requireRatings(t, inc)
	if inc.Threshold < 0.1 || inc.Threshold > 0.95 {
		t.Fatalf("threshold %v outside the paper's operating range", inc.Threshold)
	}
	// The phase clock starts at entry, so the estimate build is inside
	// the phases and the allocation counters are filled.
	if inc.Timings.Estimate > inc.Timings.Total() {
		t.Fatalf("estimate time %v exceeds the phase total %v", inc.Timings.Estimate, inc.Timings.Total())
	}
	if inc.Timings.Allocs.Total() == 0 {
		t.Fatalf("Rescore recorded no phase allocations: %+v", inc.Timings.Allocs)
	}
}

// TestRescorePrunedMetro pins that Rescore prunes a dense metro to
// cfg.MaxMetroMembers exactly like Run: it scores prev's members, takes
// the warm start, and measures the estimate a capped cold rerun measures.
func TestRescorePrunedMetro(t *testing.T) {
	w := smallWorld(12)
	p := NewPipeline(w)
	rng := rand.New(rand.NewSource(2))
	p.SeedPublicMeasurements(6, rng)

	metro := w.G.MetroOfName("Tokyo").Index
	cfg := DefaultConfig()
	cfg.BatchSize = 80
	cfg.MaxMeasurements = 1200
	cfg.Rank.MaxRank = 8
	cfg.Rank.Iterations = 5
	cfg.MaxMetroMembers = len(w.G.Metros[metro].Members) / 2
	prev := mustRun(t, p, metro, cfg)
	if len(prev.Members) != cfg.MaxMetroMembers {
		t.Fatalf("Run kept %d members, want the cap %d", len(prev.Members), cfg.MaxMetroMembers)
	}

	spec := netsim.EvolveSpec{LinkDowns: 10, Depeerings: 3, LinkUps: 10, IXPJoins: 3}
	if _, _, err := p.Evolve(rng, spec); err != nil {
		t.Fatalf("Evolve: %v", err)
	}
	p.SeedPublicMeasurements(4, rng)

	ctx := context.Background()
	inc, err := p.Rescore(ctx, prev, cfg)
	if err != nil {
		t.Fatalf("Rescore: %v", err)
	}
	if !slices.Equal(inc.Members, prev.Members) {
		t.Fatalf("Rescore scored %d members, Run scored %d", len(inc.Members), len(prev.Members))
	}
	if inc.Factors.P.Rows != prev.Factors.P.Rows {
		t.Fatalf("factor rows %d vs prev %d: the warm start was not taken", inc.Factors.P.Rows, prev.Factors.P.Rows)
	}

	coldCfg := cfg
	coldCfg.MaxMeasurements = 0
	coldCfg.BootstrapPerStrategy = 0
	cold, err := p.Snapshot().Run(ctx, metro, coldCfg)
	if err != nil {
		t.Fatalf("cold Run: %v", err)
	}
	requireSameCells(t, inc.Estimate.E, cold.Estimate.E)
	im, cm := inc.Estimate.Mask, cold.Estimate.Mask
	if im.N() != cm.N() || im.Count() != cm.Count() {
		t.Fatalf("masks differ: n %d vs %d, count %d vs %d", im.N(), cm.N(), im.Count(), cm.Count())
	}
	for i := 0; i < im.N(); i++ {
		if !slices.Equal(im.RowEntries(i), cm.RowEntries(i)) {
			t.Fatalf("mask row %d differs from a capped cold rerun", i)
		}
	}
}

// TestRescoreAfterArrivalFallsBackCold pins the growth path: new members
// make prev's factors incompatible, and Rescore must still produce a
// well-formed result over the enlarged metro.
func TestRescoreAfterArrivalFallsBackCold(t *testing.T) {
	w := smallWorld(15)
	p := NewPipeline(w)
	rng := rand.New(rand.NewSource(4))
	p.SeedPublicMeasurements(5, rng)

	metro := w.G.MetroOfName("Tokyo").Index
	cfg := DefaultConfig()
	cfg.BatchSize = 60
	cfg.MaxMeasurements = 600
	cfg.Rank.MaxRank = 6
	cfg.Rank.Iterations = 4
	prev := mustRun(t, p, metro, cfg)

	before := len(w.G.Metros[metro].Members)
	spec := netsim.EvolveSpec{NewASes: 25}
	for w.Epoch < 8 && len(w.G.Metros[metro].Members) == before {
		if _, _, err := p.Evolve(rng, spec); err != nil {
			t.Fatalf("Evolve: %v", err)
		}
	}
	if len(w.G.Metros[metro].Members) == before {
		t.Skip("no arrival landed in the study metro")
	}
	p.SeedPublicMeasurements(3, rng)

	res, err := p.Rescore(context.Background(), prev, cfg)
	if err != nil {
		t.Fatalf("Rescore: %v", err)
	}
	if len(res.Members) <= len(prev.Members) {
		t.Fatalf("members did not grow: %d -> %d", len(prev.Members), len(res.Members))
	}
	requireRatings(t, res)
}

func TestRescoreValidation(t *testing.T) {
	w := smallWorld(16)
	p := NewPipeline(w)
	cfg := DefaultConfig()
	if _, err := p.Rescore(context.Background(), &Result{Metro: 0}, cfg); !errors.Is(err, ErrInvalidConfig) {
		t.Fatalf("incomplete prev: got %v, want ErrInvalidConfig", err)
	}
	bad := cfg
	bad.BatchSize = 0
	if _, err := p.Rescore(context.Background(), &Result{Metro: 0}, bad); !errors.Is(err, ErrInvalidConfig) {
		t.Fatalf("invalid config: got %v, want ErrInvalidConfig", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	prev := &Result{Metro: 0, Rank: 3, Ratings: mat.NewSym(len(w.G.Metros[0].Members))}
	if _, err := p.Rescore(ctx, prev, cfg); !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled ctx: got %v, want ErrCanceled", err)
	}
}

// TestRescoreUsesNewEvidence pins that Rescore is not a replay: evidence
// added after prev's run lands in the new estimate.
func TestRescoreUsesNewEvidence(t *testing.T) {
	w := smallWorld(17)
	p := NewPipeline(w)
	rng := rand.New(rand.NewSource(5))
	p.SeedPublicMeasurements(4, rng)
	metro := w.G.MetroOfName("Osaka").Index
	cfg := DefaultConfig()
	cfg.BatchSize = 60
	cfg.MaxMeasurements = 400
	cfg.Rank.MaxRank = 5
	cfg.Rank.Iterations = 4
	cfg.NegPolicy = obs.NegMetascritic
	prev := mustRun(t, p, metro, cfg)
	baseline := prev.Estimate.Mask.Count()

	p.SeedPublicMeasurements(8, rng)
	res, err := p.Rescore(context.Background(), prev, cfg)
	if err != nil {
		t.Fatalf("Rescore: %v", err)
	}
	if res.Estimate.Mask.Count() < baseline {
		t.Fatalf("rescored estimate lost evidence: %d -> %d", baseline, res.Estimate.Mask.Count())
	}
}

// BenchmarkIncrementalRescore compares the streaming re-score path
// against a cold full rerun on the same post-churn evidence; the
// acceptance bar for the streaming PR is incremental < 25% of cold.
func BenchmarkIncrementalRescore(b *testing.B) {
	w := netsim.Generate(netsim.Config{Seed: 1, Metros: netsim.DefaultMetros(0.15)})
	p := NewPipeline(w)
	rng := rand.New(rand.NewSource(1))
	p.SeedPublicMeasurements(6, rng)
	metro := w.G.MetroOfName("Tokyo").Index
	cfg := DefaultConfig()
	cfg.BatchSize = 150
	cfg.MaxMeasurements = 4000
	ctx := context.Background()
	prev, err := p.Run(ctx, metro, cfg)
	if err != nil {
		b.Fatalf("warm run: %v", err)
	}
	spec := netsim.EvolveSpec{LinkDowns: 20, Depeerings: 5, LinkUps: 20, IXPJoins: 5}
	if _, _, err := p.Evolve(rng, spec); err != nil {
		b.Fatalf("Evolve: %v", err)
	}
	p.SeedPublicMeasurements(4, rng)
	coldCfg := cfg
	coldCfg.MaxMeasurements = 0
	coldCfg.BootstrapPerStrategy = 0

	var incNS, coldNS int64
	b.Run("incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := p.Rescore(ctx, prev, cfg); err != nil {
				b.Fatal(err)
			}
		}
		incNS = b.Elapsed().Nanoseconds() / int64(b.N)
	})
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := p.Snapshot().Run(ctx, metro, coldCfg); err != nil {
				b.Fatal(err)
			}
		}
		coldNS = b.Elapsed().Nanoseconds() / int64(b.N)
	})
	if incNS > 0 && coldNS > 0 {
		ratio := float64(incNS) / float64(coldNS)
		b.ReportMetric(ratio, "inc/cold-ratio")
		if ratio > 0.25 {
			b.Errorf("incremental re-score took %.0f%% of the cold rerun, want < 25%%", 100*ratio)
		}
	}
}

// requireSameCells fails unless two estimates' E have the same size and
// the same value in every one of their n² cells.
func requireSameCells(t *testing.T, got, want *mat.Sparse) {
	t.Helper()
	if got.N() != want.N() {
		t.Fatalf("estimate sizes differ: %d vs %d", got.N(), want.N())
	}
	for i := 0; i < got.N(); i++ {
		for j := 0; j < got.N(); j++ {
			if g, w := got.At(i, j), want.At(i, j); g != w {
				t.Fatalf("estimate data diverges at (%d,%d): %v vs %v", i, j, g, w)
			}
		}
	}
}
