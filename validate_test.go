package metascritic

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
)

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("DefaultConfig invalid: %v", err)
	}

	mutate := func(f func(*Config)) Config {
		c := DefaultConfig()
		f(&c)
		return c
	}
	bad := []struct {
		name string
		cfg  Config
	}{
		{"NaN epsilon", mutate(func(c *Config) { c.Epsilon = math.NaN() })},
		{"negative epsilon", mutate(func(c *Config) { c.Epsilon = -0.1 })},
		{"epsilon above one", mutate(func(c *Config) { c.Epsilon = 1.5 })},
		{"zero batch", mutate(func(c *Config) { c.BatchSize = 0 })},
		{"negative batch", mutate(func(c *Config) { c.BatchSize = -5 })},
		{"negative budget", mutate(func(c *Config) { c.MaxMeasurements = -1 })},
		{"negative bootstrap", mutate(func(c *Config) { c.BootstrapPerStrategy = -1 })},
		{"zero rank config", mutate(func(c *Config) { c.Rank.MaxRank = 0 })},
		{"zero rank iterations", mutate(func(c *Config) { c.Rank.Iterations = 0 })},
		{"NaN rank lambda", mutate(func(c *Config) { c.Rank.Lambda = math.NaN() })},
		{"prior out of range", mutate(func(c *Config) {
			var pr [144]float64
			pr[3] = 1.5
			c.Priors = &pr
		})},
	}
	for _, tc := range bad {
		err := tc.cfg.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted an invalid config", tc.name)
			continue
		}
		if !errors.Is(err, ErrInvalidConfig) {
			t.Errorf("%s: error %v does not wrap ErrInvalidConfig", tc.name, err)
		}
	}
}

func TestRunRejectsInvalid(t *testing.T) {
	w := smallWorld(1)
	p := NewPipeline(w)
	ctx := context.Background()

	cfg := DefaultConfig()
	cfg.BatchSize = 0
	if _, err := p.Run(ctx, 0, cfg); !errors.Is(err, ErrInvalidConfig) {
		t.Fatalf("invalid config: got %v, want ErrInvalidConfig", err)
	}
	if _, err := p.Run(ctx, -1, DefaultConfig()); !errors.Is(err, ErrInvalidConfig) {
		t.Fatalf("negative metro: got %v, want ErrInvalidConfig", err)
	}
	if _, err := p.Run(ctx, len(w.G.Metros), DefaultConfig()); !errors.Is(err, ErrInvalidConfig) {
		t.Fatalf("out-of-range metro: got %v, want ErrInvalidConfig", err)
	}

	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := p.Run(cancelled, 0, DefaultConfig()); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled context: got %v, want context.Canceled", err)
	}
}

func TestRunRejectsNaNEpsilon(t *testing.T) {
	w := smallWorld(1)
	p := NewPipeline(w)
	cfg := DefaultConfig()
	cfg.Epsilon = math.NaN()
	if _, err := p.Run(context.Background(), 0, cfg); !errors.Is(err, ErrInvalidConfig) {
		t.Fatalf("NaN epsilon: got %v, want ErrInvalidConfig", err)
	}
}

func TestSnapshotIsolatesStore(t *testing.T) {
	w := smallWorld(6)
	p := NewPipeline(w)
	snap := p.Snapshot()
	if snap.World != p.World || snap.Engine != p.Engine {
		t.Fatalf("snapshot must share world and engine")
	}
	if snap.Store == p.Store {
		t.Fatalf("snapshot must own its store")
	}
	// Measurements fed to the snapshot must not appear in the base store.
	rng := rand.New(rand.NewSource(1))
	if added := snap.SeedPublicMeasurements(4, rng); added == 0 {
		t.Fatalf("no measurements seeded into the snapshot")
	}
	policy := DefaultConfig().NegPolicy
	found := false
	for m, metro := range w.G.Metros {
		if snap.Store.Estimate(m, metro.Members, policy).Mask.Count() > 0 {
			found = true
		}
		if n := p.Store.Estimate(m, metro.Members, policy).Mask.Count(); n != 0 {
			t.Fatalf("snapshot measurements leaked into the base store: metro %d has %d entries", m, n)
		}
	}
	if !found {
		t.Fatalf("snapshot measurements produced no estimate entries")
	}
}
