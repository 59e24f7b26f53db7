package engine

import (
	"time"

	"metascritic"
	"metascritic/internal/bgp"
)

// MetroStats summarizes one metro run inside a batch.
type MetroStats struct {
	Metro int
	Name  string
	// Seed is the derived per-metro seed actually used (see MetroSeed).
	Seed int64
	// Worker is the index of the pool worker that ran the metro.
	Worker int
	// Wall is the metro's end-to-end wall-clock inside the batch.
	Wall time.Duration
	// Measurements is the number of targeted traceroutes issued;
	// BootstrapMeasurements is the calibration portion of it.
	Measurements          int
	BootstrapMeasurements int
	// UsedPriors reports whether pooled cross-metro priors seeded this
	// run; PriorMetros is how many finished metros were pooled into them.
	UsedPriors  bool
	PriorMetros int
	// Aborted marks a run that was cancelled mid-flight: Phases then
	// carries the partial telemetry of the phases that did run (the
	// pipeline returns its partial Result alongside the cancel error),
	// and the other counters cover only the completed portion.
	Aborted bool
	// Phases breaks the run down by pipeline phase.
	Phases metascritic.PhaseTimings
}

// RunStats aggregates a whole RunAll batch.
type RunStats struct {
	// Workers is the pool size actually used.
	Workers int
	// Wall is the batch's end-to-end wall-clock.
	Wall time.Duration
	// Busy is the summed per-metro wall-clock (the work the pool absorbed).
	Busy time.Duration
	// Measurements and BootstrapMeasurements sum over all metros.
	Measurements          int
	BootstrapMeasurements int
	// Phases sums the per-phase wall-clock and allocation counters over
	// all metros, including the partial phases of aborted runs.
	Phases metascritic.PhaseTimings
	// RouteCache snapshots the shared route cache at the end of the batch:
	// all metros propagate over one true topology, so the shard/byte/hit
	// counters are batch-global.
	RouteCache bgp.CacheStats
	// PeakRSSBytes is the process resident-set high-water mark (VmHWM)
	// sampled at the end of the batch, 0 where procfs is unavailable.
	// It is process-global and monotonic — earlier batches and other
	// goroutines contribute — but it is the number memory budgeting at
	// 100k scale is gated on, so it rides along with every batch.
	PeakRSSBytes int64
	// PerMetro holds one entry per metro, in scheduling order.
	PerMetro []MetroStats
}

// Utilization returns the fraction of worker capacity the batch kept
// busy: Busy / (Workers × Wall), in [0, 1] up to timer noise.
func (s RunStats) Utilization() float64 {
	if s.Workers <= 0 || s.Wall <= 0 {
		return 0
	}
	return float64(s.Busy) / (float64(s.Wall) * float64(s.Workers))
}

// EventKind tags a progress event.
type EventKind int

// Progress event kinds.
const (
	// MetroStarted fires when a worker picks the metro up.
	MetroStarted EventKind = iota
	// MetroFinished fires when a metro completes; Stats is set.
	MetroFinished
	// MetroFailed fires when a metro returns an error; Err is set.
	MetroFailed
)

// Event is one per-metro progress notification. Events are delivered in
// completion order on the channel the caller passed in Config.Events; a
// batch abort stops delivery (pending sends are dropped) so a slow or
// absent consumer cannot wedge cancellation.
type Event struct {
	Kind   EventKind
	Metro  int
	Name   string
	Worker int
	Time   time.Time
	// UsedPriors is set on MetroStarted when pooled priors seeded the run.
	UsedPriors bool
	// Stats is set on MetroFinished.
	Stats *MetroStats
	// Err is set on MetroFailed.
	Err error
}
