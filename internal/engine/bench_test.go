package engine

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"testing"

	"metascritic"
	"metascritic/internal/benchscale"
	"metascritic/internal/netsim"
)

// benchWorldSpecs returns a metro list with at least nMetros entries:
// the default world (14 metros) extended with additional secondary
// metros when a larger batch is requested. Sizing follows
// netsim.DefaultMetros' scale convention.
func benchWorldSpecs(scale float64, nMetros int) []netsim.MetroSpec {
	specs := netsim.DefaultMetros(scale)
	s := func(n int) int {
		v := int(float64(n) * scale)
		if v < 20 {
			v = 20
		}
		return v
	}
	extras := []netsim.MetroSpec{
		{Name: "Paris", Country: "FR", Continent: "EU", NumASes: s(90), VPCoverage: 0.75},
		{Name: "Toronto", Country: "CA", Continent: "NA", NumASes: s(70), VPCoverage: 0.60},
		{Name: "Mumbai", Country: "IN", Continent: "AS", NumASes: s(90), VPCoverage: 0.25},
		{Name: "Santiago", Country: "CL", Continent: "SA", NumASes: s(60), VPCoverage: 0.15},
	}
	for i := 0; len(specs) < nMetros && i < len(extras); i++ {
		specs = append(specs, extras[i])
	}
	return specs
}

// benchRunAllMetros measures a whole RunAll batch end to end: world
// setup is outside the timed region, but every iteration pays the full
// per-metro pipeline (snapshot, bootstrap, rank loop with targeted
// measurement, completion, threshold) across the batch. The metros=4
// case is the laptop-scale batch; metros=16 stresses the scheduler and
// the shared route cache at a batch size beyond the study-metro set.
//
//	METASCRITIC_BENCH_SCALE=0.3 go test -bench RunAll -benchtime 2x ./internal/engine/
func benchRunAllMetros(b *testing.B, nMetros, workers int) {
	// End-to-end batches run at a larger world scale than the 0.05
	// micro-benchmark trajectory: the configured scale is floored at
	// 0.15 (the BenchmarkRunMetro default) so the batch exercises
	// non-trivial metros even in `make bench` runs. Unlike the
	// micro-benchmarks an unset scale defaults to 0.15, not 1 — a
	// 16-metro paper-scale batch is a profiling session, not a
	// benchmark, so full size stays opt-in via the env var.
	scale := 0.15
	if s := os.Getenv(benchscale.EnvVar); s != "" {
		if v, err := strconv.ParseFloat(s, 64); err == nil && v > 0.15 {
			scale = v
		}
	}
	specs := benchWorldSpecs(scale, nMetros)
	w := netsim.Generate(netsim.Config{Seed: 1, Metros: specs})
	p := metascritic.NewPipeline(w)
	p.SeedPublicMeasurements(4, rand.New(rand.NewSource(1)))

	cfg := metascritic.DefaultConfig()
	cfg.MaxMeasurements = int(10000 * scale)
	cfg.BatchSize = 150
	cfg.Rank.MaxRank = 10
	cfg.Rank.Iterations = 5

	metros := make([]int, nMetros)
	for i := range metros {
		metros[i] = i
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mr, err := New(p).RunAll(context.Background(), Config{
			Base:    cfg,
			Metros:  metros,
			Workers: workers,
		})
		if err != nil {
			b.Fatalf("RunAll: %v", err)
		}
		if len(mr.Results) != nMetros {
			b.Fatalf("got %d results", len(mr.Results))
		}
		if i == 0 {
			b.ReportMetric(float64(mr.Stats.Measurements), "measurements")
			b.ReportMetric(100*mr.Stats.Utilization(), "utilization-%")
		}
	}
}

// BenchmarkRunAll is the end-to-end batch micro-benchmark that `make
// bench` runs: it answers "how fast is a whole campaign", complementing
// BenchmarkRunMetro's single-run view. The workers dimension on the
// 4-metro batch isolates the scheduler's win over sequential execution;
// metros=16 sizes the batch past the study set.
func BenchmarkRunAll(b *testing.B) {
	for _, bc := range []struct{ metros, workers int }{
		{4, 1},
		{4, 4},
		{16, 4},
	} {
		b.Run(fmt.Sprintf("metros=%d/workers=%d", bc.metros, bc.workers), func(b *testing.B) {
			benchRunAllMetros(b, bc.metros, bc.workers)
		})
	}
}
