package main

import (
	"archive/tar"
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

func repoSpec(t *testing.T) benchSpec {
	t.Helper()
	spec, err := loadSpec("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestLoadSpecRepoBenchmark(t *testing.T) {
	spec := repoSpec(t)
	if len(spec.Workloads) != 3 || len(spec.EndToEnd) != 7 {
		t.Fatalf("got %d workloads × %d metrics, want 3 × 7", len(spec.Workloads), len(spec.EndToEnd))
	}
	if spec.Command[0] != "bash" || spec.RunSeconds < 1 {
		t.Fatalf("command %q, run_seconds %d", spec.Command, spec.RunSeconds)
	}
	bad := filepath.Join(t.TempDir(), "BENCHMARK.json")
	spec.EndToEnd[0].Better = "up"
	if data, err := json.Marshal(spec); err != nil || os.WriteFile(bad, data, 0o644) != nil {
		t.Fatal(err)
	}
	if _, err := loadSpec(bad); err == nil {
		t.Fatal("a metric with better: up was accepted")
	}
}

func TestParseResult(t *testing.T) {
	spec := repoSpec(t)
	out := []byte("layer table\n" +
		`{"correct": true, "attempted": 120, "failed": 0, "metrics": {"setup_s": {"value": 0.81, "unit": "s"}, "run_s": {"value": 1.78, "unit": "s"},` +
		` "peak_rss_mb": {"value": 446, "unit": "MB"}, "link_f1": {"value": 0.74, "unit": "ratio"}, "read_p50_ms.low": {"value": 0.3, "unit": "ms"},` +
		` "read_p50_ms.high": {"value": 0.4, "unit": "ms"}, "read_max_rps": {"value": 5100, "unit": "1/s"}}}` + "\n")
	r, err := parseResult(out, spec.EndToEnd)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Correct || r.Attempted != 120 || r.Metrics["run_s"].Value != 1.78 || r.Metrics["read_p50_ms.high"].Value != 0.4 {
		t.Fatalf("parsed %+v", r)
	}
	if _, err := parseResult([]byte(`{"correct": true, "metrics": {"run_s": {"value": 1}}}`), spec.EndToEnd); err == nil {
		t.Fatal("a result missing end-to-end metrics was accepted")
	}
	if _, err := parseResult([]byte("perfbench: build failed\n"), spec.EndToEnd); err == nil {
		t.Fatal("a non-JSON last line was accepted")
	}
}

func TestExtract(t *testing.T) {
	archive := func(hdrs ...*tar.Header) *bytes.Buffer {
		var buf bytes.Buffer
		tw := tar.NewWriter(&buf)
		for _, h := range hdrs {
			if err := tw.WriteHeader(h); err != nil {
				t.Fatal(err)
			}
			if h.Typeflag == tar.TypeReg {
				if _, err := tw.Write([]byte(h.Name)); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := tw.Close(); err != nil {
			t.Fatal(err)
		}
		return &buf
	}
	file := func(name string, mode int64) *tar.Header {
		return &tar.Header{Typeflag: tar.TypeReg, Name: name, Mode: mode, Size: int64(len(name))}
	}
	dir := t.TempDir()
	err := extract(archive(
		&tar.Header{Typeflag: tar.TypeXGlobalHeader, Name: "pax_global_header", PAXRecords: map[string]string{"comment": "abc"}},
		&tar.Header{Typeflag: tar.TypeDir, Name: "perfbench/", Mode: 0o755},
		file("perfbench/run.sh", 0o755),
		file("internal/stats/stats.go", 0o644), // no directory entry before it
		&tar.Header{Typeflag: tar.TypeSymlink, Name: "link", Linkname: "perfbench"},
	), dir)
	if err != nil {
		t.Fatal(err)
	}
	for name, mode := range map[string]os.FileMode{"perfbench/run.sh": 0o755, "internal/stats/stats.go": 0o644} {
		path := filepath.Join(dir, name)
		data, err := os.ReadFile(path)
		if err != nil || string(data) != name {
			t.Fatalf("%s: %q, %v", name, data, err)
		}
		if fi, _ := os.Stat(path); fi.Mode().Perm() != mode {
			t.Fatalf("%s: mode %v, want %v", name, fi.Mode().Perm(), mode)
		}
	}
	if _, err := os.Lstat(filepath.Join(dir, "link")); !os.IsNotExist(err) {
		t.Fatalf("symlink entry was written: %v", err)
	}
	if err := extract(archive(file("../escape", 0o644)), t.TempDir()); err == nil {
		t.Fatal("an entry outside the tree was extracted")
	}
}

// center is a typical value of each end-to-end metric.
var center = map[string]float64{
	"setup_s": 0.8, "run_s": 1.8, "peak_rss_mb": 450, "link_f1": 0.74,
	"read_p50_ms.low": 0.3, "read_p50_ms.high": 0.4, "read_max_rps": 5000,
}

// draw returns n runs whose metrics are center × scale[name] with
// log-normal noise of sigma(metric).
func draw(rng *rand.Rand, metrics []metricSpec, n int, scale map[string]float64, sigma func(metricSpec) float64) []result {
	runs := make([]result, n)
	for k := range runs {
		runs[k] = result{Correct: true, Attempted: 100, Metrics: map[string]struct{ Value float64 }{}}
		for _, m := range metrics {
			v := center[m.Name] * math.Exp(sigma(m)*rng.NormFloat64())
			if s, ok := scale[m.Name]; ok {
				v *= s
			}
			runs[k].Metrics[m.Name] = struct{ Value float64 }{v}
		}
	}
	return runs
}

func verdicts(rows []row) map[string]string {
	out := map[string]string{}
	for _, r := range rows {
		out[r.Metric] = r.Verdict
	}
	return out
}

// TestJudgeNullNeverFails draws base and change from one distribution,
// with noise up to half of each metric's bound: the gate must never
// fail, and must still resolve most metrics as ok.
func TestJudgeNullNeverFails(t *testing.T) {
	metrics := repoSpec(t).EndToEnd
	rng := rand.New(rand.NewSource(7))
	ok, total := 0, 0
	for d := 0; d < 1000; d++ {
		sigma := func(m metricSpec) float64 { return m.Bound * float64(1+d%4) / 8 }
		rows, problems := judge(metrics, draw(rng, metrics, 10, nil, sigma), draw(rng, metrics, 10, nil, sigma))
		if len(problems) > 0 {
			t.Fatalf("draw %d: %v", d, problems)
		}
		for _, r := range rows {
			if r.Verdict == "worse" {
				t.Fatalf("draw %d: %s judged worse: %+v", d, r.Metric, r)
			}
			total++
			if r.Verdict == "ok" {
				ok++
			}
		}
	}
	if ok < total*9/10 {
		t.Fatalf("only %d of %d null verdicts ok", ok, total)
	}
}

func TestJudgeRegressions(t *testing.T) {
	metrics := repoSpec(t).EndToEnd
	quiet := func(metricSpec) float64 { return 0.02 }
	for _, tc := range []struct {
		metric string
		scale  float64
	}{
		{"run_s", 1.5},         // lower is better: 50% slower
		{"peak_rss_mb", 1.3},   // bound 0.15
		{"link_f1", 0.8},       // higher is better: F1 drops by a fifth
		{"read_max_rps", 0.5},  // higher is better: capacity halves
		{"read_p50_ms.low", 2}, // reads twice as slow
	} {
		rng := rand.New(rand.NewSource(3))
		base := draw(rng, metrics, 10, nil, quiet)
		change := draw(rng, metrics, 10, map[string]float64{tc.metric: tc.scale}, quiet)
		rows, problems := judge(metrics, base, change)
		v := verdicts(rows)
		for m, got := range v {
			want := "ok"
			if m == tc.metric {
				want = "worse"
			}
			if got != want {
				t.Errorf("%s × %g: %s judged %s, want %s", tc.metric, tc.scale, m, got, want)
			}
		}
		if len(problems) > 0 {
			t.Errorf("%s × %g: %v", tc.metric, tc.scale, problems)
		}
	}

	// The same shift in the better direction is no failure.
	rng := rand.New(rand.NewSource(3))
	base := draw(rng, metrics, 10, nil, quiet)
	change := draw(rng, metrics, 10, map[string]float64{"run_s": 0.5, "link_f1": 1.2}, quiet)
	rows, _ := judge(metrics, base, change)
	if v := verdicts(rows); v["run_s"] != "ok" || v["link_f1"] != "ok" {
		t.Fatalf("improvements judged %v", v)
	}
	for _, r := range rows {
		if (r.Metric == "run_s" || r.Metric == "link_f1") && r.Wins != 10 {
			t.Errorf("improved %s won %d of 10 pairs", r.Metric, r.Wins)
		}
	}

	// Identical runs tie every pair, and a tie is no win.
	rows, _ = judge(metrics, base, base)
	for _, r := range rows {
		if r.Wins != 0 || r.Verdict != "ok" {
			t.Errorf("tied %s: %d wins, verdict %s", r.Metric, r.Wins, r.Verdict)
		}
	}

	// A base too noisy to resolve the bound leaves the metric unresolved.
	noisy := func(m metricSpec) float64 { return 4 * m.Bound }
	rows, _ = judge(metrics, draw(rng, metrics, 10, nil, noisy), draw(rng, metrics, 10, nil, noisy))
	for _, r := range rows {
		if r.Verdict != "unresolved" {
			t.Fatalf("noisy %s: spread %.3f judged %s", r.Metric, r.Spread, r.Verdict)
		}
	}
}

func TestJudgeCorrectnessAndFailures(t *testing.T) {
	metrics := repoSpec(t).EndToEnd
	quiet := func(metricSpec) float64 { return 0.02 }
	rng := rand.New(rand.NewSource(5))
	fresh := func() ([]result, []result) {
		return draw(rng, metrics, 10, nil, quiet), draw(rng, metrics, 10, nil, quiet)
	}

	base, change := fresh()
	change[3].Correct = false
	if _, problems := judge(metrics, base, change); len(problems) != 1 {
		t.Fatalf("change with correct: false: problems %v", problems)
	}
	base, change = fresh()
	base[0].Correct = false
	if _, problems := judge(metrics, base, change); len(problems) != 1 {
		t.Fatalf("base with correct: false: problems %v", problems)
	}

	base, change = fresh()
	base[2].Failed, change[5].Failed = 1, 2
	if _, problems := judge(metrics, base, change); len(problems) != 1 {
		t.Fatalf("larger failed share: problems %v", problems)
	}
	change[5].Failed = 1
	if _, problems := judge(metrics, base, change); len(problems) != 0 {
		t.Fatalf("equal failed share: problems %v", problems)
	}
}
