package metascritic

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
)

// mustRun runs a metro with a background context and fails the test on
// error.
func mustRun(t *testing.T, p *Pipeline, metro int, cfg Config) *Result {
	t.Helper()
	res, err := p.Run(context.Background(), metro, cfg)
	if err != nil {
		t.Fatalf("Run metro %d: %v", metro, err)
	}
	return res
}

func TestRunCancelWrapsErrCanceled(t *testing.T) {
	w := smallWorld(31)
	p := NewPipeline(w)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := p.Run(ctx, 0, DefaultConfig())
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("pre-cancelled run: got %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled run: got %v, want context.Canceled too", err)
	}
	if errors.Is(err, ErrInvalidConfig) || errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("cancel error matches unrelated sentinels: %v", err)
	}
}

// errAfterCtx is a context whose Err flips to context.Canceled after a
// fixed number of polls — a deterministic mid-run cancellation. Done()
// (inherited from Background) never fires, which is fine: every blocking
// point in the run loop checks Err before waiting.
type errAfterCtx struct {
	context.Context
	remaining atomic.Int64
}

func (c *errAfterCtx) Err() error {
	if c.remaining.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestRunCancelKeepsPartialTimings pins that a cancelled run returns its
// partial Result alongside the error: the phases that ran keep their
// wall-clock (and allocation) telemetry instead of being dropped.
func TestRunCancelKeepsPartialTimings(t *testing.T) {
	w := smallWorld(35)
	p := NewPipeline(w)
	rng := rand.New(rand.NewSource(1))
	p.SeedPublicMeasurements(5, rng)
	cfg := DefaultConfig()
	cfg.BatchSize = 50
	cfg.MaxMeasurements = 500
	cfg.Rank.MaxRank = 5
	cfg.Rank.Iterations = 3

	// Let the entry check and a few bootstrap polls pass, then cancel:
	// the abort lands at (or inside) the bootstrap phase.
	ctx := &errAfterCtx{Context: context.Background()}
	ctx.remaining.Store(4)
	res, err := p.Snapshot().Run(ctx, 0, cfg)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("mid-run cancel: got %v, want ErrCanceled", err)
	}
	if res == nil {
		t.Fatal("cancelled run returned a nil partial Result")
	}
	if res.Timings.Bootstrap <= 0 {
		t.Fatalf("partial result lost its bootstrap timing: %+v", res.Timings)
	}
	if res.Timings.Allocs.Bootstrap == 0 {
		t.Fatalf("partial result lost its bootstrap alloc counter: %+v", res.Timings.Allocs)
	}
}

// TestRunBudgetBelowBootstrapDegrades pins the graceful degradation
// under tiny budgets: a budget below the bootstrap plan, and a zero
// budget, still produce a result from partially calibrated (or public-only)
// evidence instead of failing.
func TestRunBudgetBelowBootstrapDegrades(t *testing.T) {
	w := smallWorld(32)
	p := NewPipeline(w)
	rng := rand.New(rand.NewSource(1))
	p.SeedPublicMeasurements(5, rng)

	cfg := DefaultConfig()
	cfg.Rank.MaxRank = 5
	cfg.Rank.Iterations = 3
	for _, budget := range []int{17, 0} {
		cfg.MaxMeasurements = budget
		if _, err := p.Snapshot().Run(context.Background(), 0, cfg); err != nil {
			t.Fatalf("budget %d below the bootstrap plan failed: %v", budget, err)
		}
	}
}

// TestRunCalibrationsExactLength checks that a finished run retains no
// append growth slack in its per-measurement record.
func TestRunCalibrationsExactLength(t *testing.T) {
	p := NewPipeline(smallWorld(33))
	p.SeedPublicMeasurements(5, rand.New(rand.NewSource(1)))
	cfg := DefaultConfig()
	cfg.Rank.MaxRank = 5
	cfg.Rank.Iterations = 3
	res := mustRun(t, p, 0, cfg)
	if len(res.Calibrations) == 0 {
		t.Fatalf("run recorded no measurements")
	}
	if c := cap(res.Calibrations); c != len(res.Calibrations) {
		t.Fatalf("Calibrations cap %d, len %d", c, len(res.Calibrations))
	}
}

// TestRunSentinels pins the error-path contract of the single entry
// point: Run propagates its sentinel errors (including context
// cancellation) unchanged.
func TestRunSentinels(t *testing.T) {
	w := smallWorld(36)
	p := NewPipeline(w)

	// Run honors its context: a pre-cancelled run reports ErrCanceled and
	// the context's own cause.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.Snapshot().Run(ctx, 0, DefaultConfig()); !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("Run pre-cancelled: got %v, want ErrCanceled and context.Canceled", err)
	}

	// Run propagates validation sentinels.
	bad := DefaultConfig()
	bad.BatchSize = 0
	if _, err := p.Snapshot().Run(context.Background(), 0, bad); !errors.Is(err, ErrInvalidConfig) {
		t.Fatalf("Run invalid config: got %v, want ErrInvalidConfig", err)
	}
}

func TestRunErrorMessagesNameTheMetro(t *testing.T) {
	w := smallWorld(34)
	p := NewPipeline(w)
	cfg := DefaultConfig()
	cfg.BatchSize = 0
	_, err := p.Run(context.Background(), 2, cfg)
	if err == nil || !strings.Contains(err.Error(), "metro 2") {
		t.Fatalf("validation error does not name the metro: %v", err)
	}
}
