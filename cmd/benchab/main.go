// Command benchab is the performance gate. It runs BENCHMARK.json's
// benchmark on a base commit (unpacked from `git archive`) and on the
// working tree as it stands, each built by its own perfbench/run.sh into
// its own CARGO_TARGET_DIR. Pair k runs every workload with seed k on
// both trees, the base first on odd pairs, so host drift falls on both
// sides. It exits 1 when the working tree regresses (see judge) or
// cannot be measured. Run it from a checkout's root:
//
//	go run ./cmd/benchab -base HEAD -pairs 10
package main

import (
	"archive/tar"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"

	"metascritic/internal/stats"
)

// benchSpec is the part of BENCHMARK.json the driver reads.
type benchSpec struct {
	Command    []string
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct{ Name string }
	EndToEnd   []metricSpec `json:"end_to_end"`
}

// metricSpec is one end-to-end metric: its direction and the share by
// which its median may worsen before a change counts as a regression.
type metricSpec struct {
	Name, Better string // Better is "lower" or "higher"
	Bound        float64
}

// result is the benchmark's last line of standard output.
type result struct {
	Correct           bool
	Attempted, Failed int64
	Metrics           map[string]struct{ Value float64 }
}

var sides = [2]string{"base", "change"}

func loadSpec(path string) (spec benchSpec, err error) {
	data, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(data, &spec)
	}
	if err != nil {
		return spec, fmt.Errorf("reading the benchmark spec (run from the repository root): %w", err)
	}
	ok := len(spec.Command) > 0 && spec.RunSeconds >= 1 && len(spec.Workloads) > 0 && len(spec.EndToEnd) > 0
	for _, m := range spec.EndToEnd {
		ok = ok && (m.Better == "lower" || m.Better == "higher") && m.Bound > 0
	}
	if !ok {
		return spec, errors.New(path + ": need command, run_seconds, workloads, and end_to_end metrics with better lower|higher and a positive bound")
	}
	return spec, nil
}

// parseResult decodes the last line of a run's standard output and
// checks that it reports every end-to-end metric.
func parseResult(stdout []byte, metrics []metricSpec) (r result, err error) {
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
		return r, fmt.Errorf("result line: %w", err)
	}
	for _, m := range metrics {
		if _, ok := r.Metrics[m.Name]; !ok {
			return r, fmt.Errorf("result line lacks metric %s", m.Name)
		}
	}
	return r, nil
}

// extract writes the regular files of a tar stream under dir. It skips
// other entries (git's pax header, symlinks) and rejects names outside dir.
func extract(r io.Reader, dir string) error {
	tr := tar.NewReader(r)
	for {
		h, err := tr.Next()
		if err == io.EOF {
			return nil
		} else if err != nil {
			return fmt.Errorf("reading archive: %w", err)
		} else if h.Typeflag != tar.TypeReg {
			continue
		} else if !filepath.IsLocal(h.Name) {
			return fmt.Errorf("archive entry %q escapes the tree", h.Name)
		}
		path := filepath.Join(dir, h.Name)
		data, err := io.ReadAll(tr)
		if err == nil {
			err = os.MkdirAll(filepath.Dir(path), 0o755)
		}
		if err == nil {
			err = os.WriteFile(path, data, h.FileInfo().Mode().Perm())
		}
		if err != nil {
			return fmt.Errorf("extracting %s: %w", h.Name, err)
		}
	}
}

// row is one workload × metric line of the report.
type row struct {
	Metric       string
	Base, Change float64 // medians
	Lo, Hi       float64 // 95% CI of the mean per-pair change/base ratio
	Spread       float64 // the base's interquartile range / its median
	Verdict      string
}

// judge compares one workload's runs, base[k] and change[k] being pair
// k. A metric is "worse" when its whole CI lies beyond its limit, 1+bound
// for lower-is-better and 1-bound for higher-is-better metrics. It is
// "unresolved" when the CI straddles the limit, or when the base's own
// spread exceeds the bound, so that the runs cannot tell a change of that
// size from noise; otherwise "ok". problems lists the failures that are
// not metrics: a run reporting correct: false, and a change that fails a
// larger share of its operations.
func judge(metrics []metricSpec, base, change []result) (rows []row, problems []string) {
	rng := rand.New(rand.NewSource(1)) // one set of runs, one verdict
	for _, m := range metrics {
		b, c, ratios := make([]float64, len(base)), make([]float64, len(base)), make([]float64, len(base))
		for k := range base {
			b[k], c[k] = base[k].Metrics[m.Name].Value, change[k].Metrics[m.Name].Value
			ratios[k] = c[k] / b[k]
		}
		r := row{Metric: m.Name, Base: stats.Quantile(b, 0.5), Change: stats.Quantile(c, 0.5)}
		_, r.Lo, r.Hi = stats.BootstrapCI(ratios, 2000, 0.05, rng)
		r.Spread = (stats.Quantile(b, 0.75) - stats.Quantile(b, 0.25)) / r.Base
		// Mirror higher-is-better metrics so that worse always lies above.
		lo, hi, limit := r.Lo, r.Hi, 1+m.Bound
		if m.Better == "higher" {
			lo, hi, limit = -r.Hi, -r.Lo, m.Bound-1
		}
		r.Verdict = "ok"
		if !(r.Spread <= m.Bound) || (lo <= limit && limit <= hi) {
			r.Verdict = "unresolved"
		} else if lo > limit {
			r.Verdict = "worse"
		}
		rows = append(rows, r)
	}
	var att, fail [2]int64
	for s, side := range [2][]result{base, change} {
		for k, r := range side {
			att[s], fail[s] = att[s]+r.Attempted, fail[s]+r.Failed
			if !r.Correct {
				problems = append(problems, fmt.Sprintf("%s run of pair %d reports correct: false", sides[s], k+1))
			}
		}
	}
	if fail[1]*att[0] > fail[0]*att[1] { // fail[1]/att[1] > fail[0]/att[0]
		problems = append(problems, fmt.Sprintf("change failed %d of %d operations, base %d of %d", fail[1], att[1], fail[0], att[0]))
	}
	return rows, problems
}

func main() {
	base := flag.String("base", "HEAD", "git revision to compare the working tree against")
	pairs := flag.Int("pairs", 10, "alternating base/working-tree run pairs per workload (at least 2)")
	flag.Parse()
	if err := run(*base, *pairs); err != nil {
		fmt.Fprintln(os.Stderr, "benchab:", err)
		os.Exit(1)
	}
}

// run measures both trees and prints the report. It returns an error when
// it cannot measure, or when the working tree fails the gate.
func run(base string, pairs int) error {
	if pairs < 2 {
		return errors.New("-pairs must be at least 2")
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	tmp, err := os.MkdirTemp("", "benchab-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	archive, err := exec.Command("git", "archive", "--format=tar", base).Output()
	if err != nil {
		return fmt.Errorf("git archive %s: %w", base, err)
	}
	if err := extract(bytes.NewReader(archive), filepath.Join(tmp, "base")); err != nil {
		return err
	}

	dirs := [2]string{filepath.Join(tmp, "base"), "."}
	runs := make([][2][]result, len(spec.Workloads))
	failed := false
	for k := 1; k <= pairs; k++ {
		for w, wl := range spec.Workloads {
			for i := 0; i < 2; i++ {
				s := (i + k + 1) % 2 // the base first on odd pairs
				args := append(spec.Command[1:len(spec.Command):len(spec.Command)], "--workload", wl.Name,
					"--seed", strconv.Itoa(k), "--seconds", strconv.Itoa(spec.RunSeconds), "--trace", "0")
				cmd := exec.Command(spec.Command[0], args...)
				cmd.Dir = dirs[s]
				cmd.Env = append(os.Environ(), "CARGO_TARGET_DIR="+filepath.Join(tmp, "build"+strconv.Itoa(s)))
				var stdout, stderr bytes.Buffer
				cmd.Stdout, cmd.Stderr = &stdout, &stderr
				runErr := cmd.Run() // a run whose checks failed exits 1 after its result
				r, err := parseResult(stdout.Bytes(), spec.EndToEnd)
				if err != nil {
					os.Stderr.Write(stderr.Bytes())
					return fmt.Errorf("%s %s seed %d: %v (exit: %v)", sides[s], wl.Name, k, err, runErr)
				}
				runs[w][s] = append(runs[w][s], r)
				fmt.Fprintf(os.Stderr, "pair %d/%d %s %s: correct=%t failed=%d/%d\n", k, pairs, wl.Name, sides[s], r.Correct, r.Failed, r.Attempted)
			}
		}
	}

	fmt.Printf("base %s vs working tree: %d pairs of %d s runs\n", base, pairs, spec.RunSeconds)
	for w, wl := range spec.Workloads {
		rows, problems := judge(spec.EndToEnd, runs[w][0], runs[w][1])
		fmt.Printf("\n%-12s %-17s %10s %10s %7s %17s %6s %5s %6s  %s\n",
			wl.Name, "metric", "base", "change", "ratio", "95% CI", "better", "bound", "spread", "verdict")
		for i, r := range rows {
			fmt.Printf("%-12s %-17s %10.4g %10.4g %7.3f   [%6.3f, %6.3f] %6s %5.2f %6.3f  %s\n", "", r.Metric, r.Base, r.Change,
				r.Change/r.Base, r.Lo, r.Hi, spec.EndToEnd[i].Better, spec.EndToEnd[i].Bound, r.Spread, r.Verdict)
			failed = failed || r.Verdict == "worse"
		}
		for _, p := range problems {
			fmt.Printf("%s: %s\n", wl.Name, p)
		}
		failed = failed || len(problems) > 0
	}
	if failed {
		return errors.New("FAIL")
	}
	fmt.Println("PASS")
	return nil
}
