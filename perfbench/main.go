// Command perfbench is the repository benchmark. It runs one named
// workload from a seed, drives the system only through its public entry
// points (world generation, Pipeline, engine.RunAll, Pipeline.Run and the
// HTTP API over a loopback listener), checks that every output is
// correct, and prints its metrics as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (BENCHMARK.json
// "end_to_end"); with -trace 1 the run also records spans around every
// call it makes, replays single layers, prints a per-layer table of where
// run_s went, writes the spans under the build directory, and reports the
// per-layer metrics instead. Usage, from the repository root:
//
//	bash perfbench/run.sh --workload campaign --seed 1 --seconds 24 --trace 0
//
// The process exits 1 (after printing its result) when a correctness
// check fails, and 2 on bad arguments.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool      `json:"correct"`
	Attempted int64     `json:"attempted"`
	Failed    int64     `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// checks counts correctness checks: every operation whose output is
// verified counts as attempted, and every failed verification as failed.
type checks struct {
	attempted atomic.Int64
	failed    atomic.Int64
	mu        sync.Mutex
	logged    int
}

// check records one verified operation; a failure is described on
// standard error (the first few only, so a systematic failure stays
// readable).
func (c *checks) check(ok bool, format string, args ...any) bool {
	c.attempted.Add(1)
	if ok {
		return true
	}
	c.failed.Add(1)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.logged < 20 {
		c.logged++
		fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
	}
	return false
}

// metricSet collects a run's named metrics.
type metricSet map[string]metric

func (m metricSet) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

func main() {
	name := flag.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := flag.Int("seconds", 24, "measurement budget in seconds")
	traced := flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	flag.Parse()
	wl, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload one of %s, -seconds >= 1, -trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}

	b := &bench{
		wl:      wl,
		seed:    *seed,
		budget:  time.Duration(*seconds) * time.Second,
		tr:      newTracer(*traced == 1),
		e2e:     metricSet{},
		layer:   metricSet{},
		started: time.Now(),
	}
	b.run()

	out := result{
		Correct:   b.ck.failed.Load() == 0,
		Attempted: b.ck.attempted.Load(),
		Failed:    b.ck.failed.Load(),
		Metrics:   b.e2e,
	}
	if b.tr.on {
		out.Metrics = b.layer
		b.printLayerTable(os.Stdout)
		if err := b.tr.write(fmt.Sprintf("spans-%s-seed%d.json", wl.name, b.seed)); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d done in %.1fs\n", wl.name, b.seed, time.Since(b.started).Seconds())
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
