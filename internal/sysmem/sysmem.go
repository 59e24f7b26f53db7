// Package sysmem reads process-level memory counters from the kernel's
// /proc/self/status. Go's runtime.MemStats only sees the Go heap; the
// numbers the 100k-scale work budgets against — and the ones an operator
// watches — are resident-set sizes, which also cover goroutine stacks,
// runtime overhead and any non-heap mappings. On platforms without procfs
// every reader returns 0, so callers can surface the counters
// unconditionally and let zero mean "unavailable".
package sysmem

import (
	"bytes"
	"os"
	"strconv"
)

// PeakRSSBytes returns the process's peak resident set size (VmHWM): the
// high-water mark since process start, monotonic and therefore the right
// single number for "what did this run cost in memory" benchmarking.
func PeakRSSBytes() int64 { return Read().PeakRSSBytes }

// Stats is one consistent snapshot of the process memory counters.
type Stats struct {
	// PeakRSSBytes is VmHWM: the resident high-water mark since start.
	PeakRSSBytes int64
	// CurrentRSSBytes is VmRSS at snapshot time. The kernel updates the
	// high-water mark lazily, so Current can momentarily exceed Peak.
	CurrentRSSBytes int64
}

// Read snapshots both counters from a single /proc/self/status read.
func Read() Stats {
	buf, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return Stats{}
	}
	var st Stats
	for len(buf) > 0 {
		line := buf
		if i := bytes.IndexByte(buf, '\n'); i >= 0 {
			line, buf = buf[:i], buf[i+1:]
		} else {
			buf = nil
		}
		switch {
		case bytes.HasPrefix(line, []byte("VmHWM:")):
			st.PeakRSSBytes = parseKB(line[len("VmHWM:"):])
		case bytes.HasPrefix(line, []byte("VmRSS:")):
			st.CurrentRSSBytes = parseKB(line[len("VmRSS:"):])
		}
	}
	return st
}

// parseKB converts the value of a "  <n> kB" suffix to bytes (0 if
// malformed).
func parseKB(rest []byte) int64 {
	fields := bytes.Fields(rest)
	if len(fields) == 0 {
		return 0
	}
	kb, err := strconv.ParseInt(string(fields[0]), 10, 64)
	if err != nil {
		return 0
	}
	return kb << 10
}
