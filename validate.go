package metascritic

import (
	"fmt"
	"math"
)

// Validate rejects configurations that would make a run silently
// misbehave: NaN or out-of-range exploration fractions, non-positive batch
// sizes, out-of-range priors, and zero-valued rank settings (a Config
// should start from DefaultConfig, which fills them). Every run entry
// point calls it, so an invalid Config fails fast with a descriptive
// error instead of producing a quietly wrong topology.
func (c Config) Validate() error {
	if math.IsNaN(c.Epsilon) || c.Epsilon < 0 || c.Epsilon > 1 {
		return fmt.Errorf("%w: Epsilon must be in [0,1], got %v", ErrInvalidConfig, c.Epsilon)
	}
	if c.BatchSize <= 0 {
		return fmt.Errorf("%w: BatchSize must be positive, got %d", ErrInvalidConfig, c.BatchSize)
	}
	if c.MaxMeasurements < 0 {
		return fmt.Errorf("%w: MaxMeasurements must be non-negative, got %d", ErrInvalidConfig, c.MaxMeasurements)
	}
	if c.Priors != nil {
		for i, v := range c.Priors {
			if math.IsNaN(v) || v < 0 || v > 1 {
				return fmt.Errorf("%w: Priors[%d] must be a success rate in [0,1], got %v", ErrInvalidConfig, i, v)
			}
		}
	}
	if c.BootstrapPerStrategy < 0 {
		return fmt.Errorf("%w: BootstrapPerStrategy must be non-negative, got %d", ErrInvalidConfig, c.BootstrapPerStrategy)
	}
	if c.MaxMetroMembers < 0 {
		return fmt.Errorf("%w: MaxMetroMembers must be non-negative (0 = no cap), got %d", ErrInvalidConfig, c.MaxMetroMembers)
	}
	if c.MeasureWorkers < 0 {
		return fmt.Errorf("%w: MeasureWorkers must be non-negative (0 = GOMAXPROCS, 1 = serial), got %d", ErrInvalidConfig, c.MeasureWorkers)
	}
	if err := c.Rank.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrInvalidConfig, err)
	}
	return nil
}
