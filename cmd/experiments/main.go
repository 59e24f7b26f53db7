// Command experiments regenerates every table and figure of the paper's
// evaluation against a synthetic Internet and prints them as text tables.
// The experiments share one harness, which runs each metro once, on first
// use, and caches the result for the experiments after it.
//
// Usage:
//
//	experiments [-scale 0.2] [-seed 1] [-budget 8000] [-only Fig7,Table3] [-md report.md]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"metascritic/experiments"
	"metascritic/internal/cliflags"
	"metascritic/internal/graphmetrics"
	"metascritic/internal/report"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run() error {
	only := flag.String("only", "", "comma-separated experiment ids to run (default: all)")
	mdOut := flag.String("md", "", "also write all tables as a markdown report to this file")
	wf := cliflags.World{Scale: 0.2, Seed: 1}
	budget := flag.Int("budget", 8000, "targeted traceroute budget per metro")
	var prof cliflags.Profile
	wf.Register(flag.CommandLine)
	prof.Register(flag.CommandLine)
	flag.Parse()
	scale, seed := &wf.Scale, &wf.Seed

	stopProf, err := prof.Start()
	if err != nil {
		return err
	}
	defer stopProf()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	want := map[string]bool{}
	for _, id := range strings.Split(*only, ",") {
		if id = strings.TrimSpace(id); id != "" {
			want[strings.ToLower(id)] = true
		}
	}
	runAll := len(want) == 0
	should := func(id string) bool { return runAll || want[strings.ToLower(id)] }

	fmt.Printf("generating world (scale %.2f, seed %d)...\n", *scale, *seed)
	start := time.Now()
	h := experiments.NewHarness(experiments.Options{
		Scale: *scale, Seed: *seed, Budget: *budget,
	})
	fmt.Printf("world ready in %v: %d ASes, %d probes\n", time.Since(start).Round(time.Millisecond),
		h.W.G.N(), len(h.W.Probes))
	fmt.Printf("world realism report:\n%s\n", graphmetrics.FromGraph(h.W.G))

	var md *os.File
	if *mdOut != "" {
		f, err := os.Create(*mdOut)
		if err != nil {
			return fmt.Errorf("create markdown report %s: %w", *mdOut, err)
		}
		defer f.Close()
		md = f
		fmt.Fprintf(md, "# metAScritic experiment report (scale %.2f, seed %d)\n\n", *scale, *seed)
	}

	var firstErr error
	show := func(id string, run func() *experiments.Table) {
		if !should(id) || firstErr != nil {
			return
		}
		if err := ctx.Err(); err != nil {
			firstErr = fmt.Errorf("sweep cancelled: %w", err)
			return
		}
		t0 := time.Now()
		tbl := run()
		fmt.Println(tbl.String())
		fmt.Printf("[%s completed in %v]\n\n", id, time.Since(t0).Round(time.Millisecond))
		if md != nil {
			if err := report.Markdown(md, tbl); err != nil {
				firstErr = fmt.Errorf("markdown for %s: %w", id, err)
			}
		}
	}

	show("Fig1", func() *experiments.Table { _, t := experiments.Fig1(h); return t })
	show("Fig3", func() *experiments.Table { _, t := experiments.Fig3(h); return t })
	show("Fig4", func() *experiments.Table { _, t := experiments.Fig4(h); return t })
	show("Fig5", func() *experiments.Table { _, t := experiments.Fig5(h); return t })
	show("Fig6", func() *experiments.Table { _, t := experiments.Fig6(h); return t })
	show("Fig7", func() *experiments.Table { _, t := experiments.Fig7(h); return t })
	show("Fig8", func() *experiments.Table { _, t := experiments.Fig8(h); return t })
	show("Fig9", func() *experiments.Table { _, t := experiments.Fig9(h); return t })
	show("Fig9M", func() *experiments.Table { _, t := experiments.Fig9Measured(h); return t })
	show("Fig10", func() *experiments.Table { _, t := experiments.Fig10(h, 60, 5); return t })
	show("Fig11", func() *experiments.Table { _, t := experiments.Fig11(h); return t })
	show("Fig12", func() *experiments.Table { _, t := experiments.Fig12(h); return t })
	show("Fig13", func() *experiments.Table {
		_, force, t := experiments.Fig13And14(h)
		fmt.Println("Fig. 14 — force explanation of the top inferred link:")
		fmt.Println(force)
		return t
	})
	show("Fig15", func() *experiments.Table { _, t := experiments.Fig15(h); return t })
	show("Fig16", func() *experiments.Table { _, t := experiments.Fig16(h); return t })
	show("Table2", func() *experiments.Table { _, t := experiments.Table2(h); return t })
	show("Table3", func() *experiments.Table { _, t := experiments.Table3(h); return t })
	show("Table4", func() *experiments.Table { _, t := experiments.Table4(h); return t })
	show("Table5", func() *experiments.Table { _, t := experiments.Table5(h); return t })
	show("E3", func() *experiments.Table { _, t := experiments.E3(h); return t })
	show("E7", func() *experiments.Table { _, t := experiments.E7(h); return t })
	show("AblEpsilon", func() *experiments.Table { _, t := experiments.AblationEpsilon(h); return t })
	show("AblFeatures", func() *experiments.Table { _, t := experiments.AblationFeatureWeight(h); return t })
	show("AblTransfer", func() *experiments.Table { _, t := experiments.AblationTransferability(h); return t })
	show("AblPrior", func() *experiments.Table { _, t := experiments.AblationHierarchicalPrior(h); return t })

	if firstErr != nil {
		return firstErr
	}
	fmt.Printf("all experiments done in %v\n", time.Since(start).Round(time.Millisecond))
	return nil
}
