package metascritic_test

// End-to-end benchmark of the per-metro pipeline at one and four
// measurement workers (measure.go). Each iteration runs over a snapshot of
// a shared seeded pipeline but with a cold traceroute engine, so the
// measured work includes the route propagations a fresh measurement
// campaign pays — the cost the speculative fan-out is designed to
// parallelize.
// Scale with METASCRITIC_BENCH_SCALE like the experiment benchmarks.
//
// Comparing wall-clock recorded in different sessions is unreliable: a
// workers=1 "regression" of 183.6 → 233.7 ms/op once reproduced as 234 vs
// 254 ms when both trees were re-run back to back on one machine, with
// identical allocs/op (207,318 vs 207,325) — session variance, not a code
// change. Trust allocs/op across sessions and ns/op only within one;
// `make bench-compare` runs both trees in one session (DESIGN.md §7.9).

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"sync"
	"testing"

	"metascritic"
	"metascritic/internal/netsim"
	"metascritic/internal/traceroute"
)

var (
	rmOnce sync.Once
	rmPipe *metascritic.Pipeline
	rmCfg  metascritic.Config
)

func runMetroBenchSetup(b *testing.B) (*metascritic.Pipeline, metascritic.Config) {
	b.Helper()
	rmOnce.Do(func() {
		scale := 0.15
		if s := os.Getenv("METASCRITIC_BENCH_SCALE"); s != "" {
			if v, err := strconv.ParseFloat(s, 64); err == nil && v > 0 {
				scale = v
			}
		}
		w := netsim.Generate(netsim.Config{Seed: 1, Metros: netsim.DefaultMetros(scale)})
		rmPipe = metascritic.NewPipeline(w)
		rng := rand.New(rand.NewSource(1))
		rmPipe.SeedPublicMeasurements(6, rng)

		rmCfg = metascritic.DefaultConfig()
		rmCfg.MaxMeasurements = int(40000 * scale)
		rmCfg.BatchSize = 200
		rmCfg.Rank.MaxRank = 12
		rmCfg.Rank.Iterations = 6
	})
	return rmPipe, rmCfg
}

func BenchmarkRunMetro(b *testing.B) {
	base, cfg := runMetroBenchSetup(b)
	metro := base.World.PrimaryMetros()[0]
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			c := cfg
			c.MeasureWorkers = workers
			for i := 0; i < b.N; i++ {
				// Cold engine per iteration: route propagation happens
				// inside the timed region, as in a fresh campaign.
				p := base.Snapshot()
				p.Engine = traceroute.NewEngine(base.World)
				res, err := p.Run(context.Background(), metro, c)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(float64(res.Measurements), "measurements")
				}
			}
		})
	}
}
