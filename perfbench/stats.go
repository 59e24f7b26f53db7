package main

import (
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"time"

	"metascritic/internal/sysmem"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (xs is not modified). It returns NaN for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func mb(bytes int64) float64 { return float64(bytes) / (1 << 20) }

// heapLive returns the live heap after a forced collection, from
// runtime/metrics. Differences of two readings bracket what a replay
// retained.
func heapLive() int64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return int64(s[0].Value.Uint64())
}

// settle collects garbage, so a timed phase pays neither for the
// previous phase's garbage nor for the collector that garbage would
// trigger. The freed heap stays mapped: returning it to the kernel would
// make the phase fault it in again, which costs more the busier the host.
func settle() { runtime.GC() }

// resetPeakRSS returns freed memory to the kernel and restarts the
// resident high-water mark (VmHWM), so the peak read at the end of a run
// covers only what came after set-up. It reports whether the kernel
// accepted the reset.
func resetPeakRSS() bool {
	debug.FreeOSMemory()
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		return false
	}
	_, werr := f.WriteString("5")
	cerr := f.Close()
	return werr == nil && cerr == nil
}

func peakRSSMB() float64 { return mb(sysmem.PeakRSSBytes()) }
