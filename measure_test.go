package metascritic

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// measureTestConfig is a laptop-scale config that still exercises
// bootstrap, several targeted batches and the threshold search.
func measureTestConfig() Config {
	cfg := DefaultConfig()
	cfg.BatchSize = 60
	cfg.MaxMeasurements = 1200
	cfg.Rank.MaxRank = 6
	cfg.Rank.Iterations = 4
	return cfg
}

// seededPipeline builds a pipeline over smallWorld(seed) with public
// measurements already ingested.
func seededPipeline(seed int64) *Pipeline {
	w := smallWorld(seed)
	p := NewPipeline(w)
	rng := rand.New(rand.NewSource(1))
	p.SeedPublicMeasurements(6, rng)
	return p
}

// TestRunMetroParallelDeterminism pins the pipeline's central contract:
// every Result field except the Timings telemetry is byte-identical
// between one and four measurement workers — across seeds and metros.
func TestRunMetroParallelDeterminism(t *testing.T) {
	for _, seed := range []int64{3, 9} {
		base := seededPipeline(seed)
		for _, metroName := range []string{"Tokyo", "Osaka"} {
			metro := base.World.G.MetroOfName(metroName).Index
			results := map[int]*Result{}
			for _, workers := range []int{1, 4} {
				cfg := measureTestConfig()
				cfg.MeasureWorkers = workers
				res, err := base.Snapshot().Run(context.Background(), metro, cfg)
				if err != nil {
					t.Fatalf("seed %d metro %s workers %d: %v", seed, metroName, workers, err)
				}
				if res.Measurements == 0 {
					t.Fatalf("seed %d metro %s workers %d: no measurements", seed, metroName, workers)
				}
				ms := res.Timings.Measure
				if ms.Workers != workers {
					t.Fatalf("MeasureStats.Workers = %d, want %d", ms.Workers, workers)
				}
				if ms.Launched != res.Measurements {
					// No cancellation and the window never exceeds the
					// budget, so every launched trace commits.
					t.Fatalf("workers %d: Launched %d != Measurements %d", workers, ms.Launched, res.Measurements)
				}
				// Timings (including MeasureStats) are telemetry, outside
				// the determinism contract.
				res.Timings = PhaseTimings{}
				results[workers] = res
			}
			if !reflect.DeepEqual(results[1], results[4]) {
				t.Fatalf("seed %d metro %s: result at four workers differs from one", seed, metroName)
			}
			// The sorted-row CSR invariant must survive the full run,
			// including pickThreshold's shuffling of RowEntries results.
			mask := results[4].Estimate.Mask
			for i := 0; i < mask.N(); i++ {
				row := mask.RowView(i)
				for k := 1; k < len(row); k++ {
					if row[k-1] >= row[k] {
						t.Fatalf("mask row %d not strictly sorted after run: %v", i, row)
					}
				}
			}
		}
	}
}

// TestRunMetroBudgetUnderSpeculation forces a budget far smaller than the
// bootstrap plan so the speculative window must truncate: the over-budget
// tail may never be launched, counted or committed, at any worker count.
func TestRunMetroBudgetUnderSpeculation(t *testing.T) {
	for _, workers := range []int{1, 4} {
		p := seededPipeline(6)
		publicIssued := p.Engine.Issued()
		metro := p.World.G.MetroOfName("Tokyo").Index
		cfg := measureTestConfig()
		cfg.MaxMeasurements = 37 // far below the bootstrap plan size
		cfg.MeasureWorkers = workers
		res, err := p.Snapshot().Run(context.Background(), metro, cfg)
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		if res.Measurements != cfg.MaxMeasurements {
			t.Fatalf("workers %d: Measurements = %d, want exactly the budget %d", workers, res.Measurements, cfg.MaxMeasurements)
		}
		ms := res.Timings.Measure
		if ms.Launched != cfg.MaxMeasurements {
			t.Fatalf("workers %d: Launched = %d, want %d (over-budget tail must never launch)", workers, ms.Launched, cfg.MaxMeasurements)
		}
		if ms.Discarded == 0 {
			t.Fatalf("workers %d: expected a discarded over-budget tail, got none", workers)
		}
		// The engine counts every traceroute actually simulated: exactly
		// the public seed plus the budget — speculation never over-issues
		// here.
		if got := p.Engine.Issued() - publicIssued; got != cfg.MaxMeasurements {
			t.Fatalf("workers %d: engine issued %d targeted traceroutes, want %d", workers, got, cfg.MaxMeasurements)
		}
		if len(res.Calibrations) != res.Measurements {
			t.Fatalf("workers %d: calibrations %d != measurements %d", workers, len(res.Calibrations), res.Measurements)
		}
	}
}

// countdownCtx is a context whose Err flips to Canceled after n polls —
// a deterministic way to land cancellation in the middle of a fan-out
// (timer-based cancellation would race the run's progress).
type countdownCtx struct {
	left atomic.Int64
	done chan struct{}
	once sync.Once
}

func newCountdownCtx(n int64) *countdownCtx {
	c := &countdownCtx{done: make(chan struct{})}
	c.left.Store(n)
	return c
}

func (c *countdownCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *countdownCtx) Done() <-chan struct{}       { return c.done }
func (c *countdownCtx) Value(any) any               { return nil }
func (c *countdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		c.once.Do(func() { close(c.done) })
		return context.Canceled
	}
	return nil
}

// TestRunMetroParallelCancellation cancels mid-fan-out and checks the
// pipeline's cleanup contract: a prompt error wrapping ctx.Err(),
// speculative traces discarded without being committed or counted against
// the budget, the base store untouched, and no corruption of shared state
// (a fresh snapshot still reproduces the uncancelled run exactly). One
// worker runs the window inline on the fan-out goroutine, four race on
// it; both must clean up the same way.
func TestRunMetroParallelCancellation(t *testing.T) {
	for _, workers := range []int{1, 4} {
		base := seededPipeline(7)
		metro := base.World.G.MetroOfName("Tokyo").Index
		cfg := measureTestConfig()
		cfg.MeasureWorkers = workers

		before, err := base.Snapshot().Run(context.Background(), metro, cfg)
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		baseEstimate := base.Store.Estimate(metro, base.World.G.Metros[metro].Members, cfg.NegPolicy)
		issuedBefore := base.Engine.Issued()

		// 40 polls: past the entry checks, inside the bootstrap fan-out.
		ctx := newCountdownCtx(40)
		res, err := base.Snapshot().Run(ctx, metro, cfg)
		if err == nil {
			t.Fatalf("workers %d: expected cancellation error, got result with %d measurements", workers, res.Measurements)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers %d: error %v does not wrap context.Canceled", workers, err)
		}

		// Budget may not be overrun by speculation even under
		// cancellation: the window is capped at the budget before any
		// trace launches.
		if got := base.Engine.Issued() - issuedBefore; got > cfg.MaxMeasurements {
			t.Fatalf("workers %d: cancelled run issued %d traceroutes, budget is %d", workers, got, cfg.MaxMeasurements)
		}

		// The snapshot isolated the cancelled run: the base store is
		// unchanged.
		after := base.Store.Estimate(metro, base.World.G.Metros[metro].Members, cfg.NegPolicy)
		if !reflect.DeepEqual(baseEstimate, after) {
			t.Fatalf("workers %d: cancelled run leaked observations into the base store", workers)
		}

		// Shared state (engine caches) survived intact: a fresh snapshot
		// still reproduces the original run byte-for-byte.
		again, err := base.Snapshot().Run(context.Background(), metro, cfg)
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		before.Timings = PhaseTimings{}
		again.Timings = PhaseTimings{}
		if !reflect.DeepEqual(before, again) {
			t.Fatalf("workers %d: run after cancellation differs from run before it", workers)
		}
	}
}

// TestMeasureStatsMerge pins the engine-side aggregation primitive.
func TestMeasureStatsMerge(t *testing.T) {
	a := MeasureStats{Workers: 2, Launched: 10, Discarded: 1, Wall: time.Second}
	b := MeasureStats{Workers: 8, Launched: 5, Wall: time.Second}
	a.Merge(b)
	want := MeasureStats{Workers: 8, Launched: 15, Discarded: 1, Wall: 2 * time.Second}
	if a != want {
		t.Fatalf("Merge = %+v, want %+v", a, want)
	}
}
