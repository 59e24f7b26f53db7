package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public call it makes (the program itself carries no
// instrumentation). Parent is the ID of the span that caused it, or -1.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Layer  string  `json:"layer"`
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
}

// tracer keeps spans in memory and writes them out when the run ends.
// When off, every method is a no-op returning -1.
type tracer struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// add records a finished span and returns its ID.
func (t *tracer) add(parent int, layer, name string, start, end time.Time) int {
	if !t.on {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, Layer: layer,
		Start: ms(start.Sub(t.t0)), End: ms(end.Sub(t.t0)),
	})
	return id
}

// timed runs fn inside a span.
func (t *tracer) timed(parent int, layer, name string, fn func()) (int, time.Duration) {
	start := time.Now()
	fn()
	end := time.Now()
	return t.add(parent, layer, name, start, end), end.Sub(start)
}

// write stores the spans as JSON in the build directory.
func (t *tracer) write(file string) error {
	dir := os.Getenv("CARGO_TARGET_DIR")
	if dir == "" {
		dir = ".bench_build"
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	buf, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, file), buf, 0o644)
}
