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

	"metascritic/internal/cliflags"
	"metascritic/internal/eval"
	"metascritic/internal/graphmetrics"
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
	h := eval.NewHarness(eval.Options{
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
	show := func(id string, run func() *eval.Table) {
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
			if err := tbl.Markdown(md); err != nil {
				firstErr = fmt.Errorf("markdown for %s: %w", id, err)
			}
		}
	}

	show("Fig1", func() *eval.Table { _, t := eval.Fig1(h); return t })
	show("Fig3", func() *eval.Table { _, t := eval.Fig3(h); return t })
	show("Fig4", func() *eval.Table { _, t := eval.Fig4(h); return t })
	show("Fig5", func() *eval.Table { _, t := eval.Fig5(h); return t })
	show("Fig6", func() *eval.Table { _, t := eval.Fig6(h); return t })
	show("Fig7", func() *eval.Table { _, t := eval.Fig7(h); return t })
	show("Fig8", func() *eval.Table { _, t := eval.Fig8(h); return t })
	show("Fig9", func() *eval.Table { _, t := eval.Fig9(h); return t })
	show("Fig9M", func() *eval.Table { _, t := eval.Fig9Measured(h); return t })
	show("Fig10", func() *eval.Table { _, t := eval.Fig10(h, 60, 5); return t })
	show("Fig11", func() *eval.Table { _, t := eval.Fig11(h); return t })
	show("Fig12", func() *eval.Table { _, t := eval.Fig12(h); return t })
	show("Fig13", func() *eval.Table {
		_, force, t := eval.Fig13And14(h)
		fmt.Println("Fig. 14 — force explanation of the top inferred link:")
		fmt.Println(force)
		return t
	})
	show("Fig15", func() *eval.Table { _, t := eval.Fig15(h); return t })
	show("Fig16", func() *eval.Table { _, t := eval.Fig16(h); return t })
	show("Table2", func() *eval.Table { _, t := eval.Table2(h); return t })
	show("Table3", func() *eval.Table { _, t := eval.Table3(h); return t })
	show("Table4", func() *eval.Table { _, t := eval.Table4(h); return t })
	show("Table5", func() *eval.Table { _, t := eval.Table5(h); return t })
	show("E3", func() *eval.Table { _, t := eval.E3(h); return t })
	show("E7", func() *eval.Table { _, t := eval.E7(h); return t })
	show("AblEpsilon", func() *eval.Table { _, t := eval.AblationEpsilon(h); return t })
	show("AblFeatures", func() *eval.Table { _, t := eval.AblationFeatureWeight(h); return t })
	show("AblTransfer", func() *eval.Table { _, t := eval.AblationTransferability(h); return t })
	show("AblPrior", func() *eval.Table { _, t := eval.AblationHierarchicalPrior(h); return t })

	if firstErr != nil {
		return firstErr
	}
	fmt.Printf("all experiments done in %v\n", time.Since(start).Round(time.Millisecond))
	return nil
}
