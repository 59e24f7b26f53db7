package main

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"metascritic/internal/cliflags"
)

// TestWatchDeterministic pins the watch loop's contract: equal seeds
// give byte-identical tick reports (and output), every tick advances the
// epoch while classifying the full view delta, and a tight route-cache
// budget leaves the view deltas unchanged.
func TestWatchDeterministic(t *testing.T) {
	pf := cliflags.Pipeline{World: cliflags.World{Scale: 0.1, Seed: 11}, Public: 4}
	opts := watchOptions{Ticks: 3, Interval: 0, Churn: 9, Dests: 48}

	var out1, out2 bytes.Buffer
	reps1, err := watch(context.Background(), &out1, pf, opts)
	if err != nil {
		t.Fatal(err)
	}
	reps2, err := watch(context.Background(), &out2, pf, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(reps1, reps2) {
		t.Fatalf("watch reports diverged across identical runs:\n%+v\n%+v", reps1, reps2)
	}
	if out1.String() != out2.String() {
		t.Fatalf("watch output diverged:\n%s\n%s", out1.String(), out2.String())
	}

	if len(reps1) != 3 {
		t.Fatalf("expected 3 tick reports, got %d", len(reps1))
	}
	totalEvents, totalDelta := 0, 0
	for i, rep := range reps1 {
		if rep.Tick != i+1 || rep.Epoch != uint32(i+1) {
			t.Fatalf("tick %d has wrong tick/epoch: %+v", i+1, rep)
		}
		if rep.ExplainedDown > rep.Withdrawn || rep.ExplainedUp > rep.Appeared {
			t.Fatalf("explained exceeds the delta: %+v", rep)
		}
		if got := rep.Withdrawn + rep.Appeared - rep.ExplainedDown - rep.ExplainedUp; got != len(rep.Anomalies) {
			t.Fatalf("anomalies do not account for the unexplained delta: %+v", rep)
		}
		totalEvents += rep.Events
		totalDelta += rep.Withdrawn + rep.Appeared
	}
	if totalEvents == 0 {
		t.Fatal("three churn ticks produced no events")
	}
	t.Logf("3 ticks: %d events, %d view deltas, %d anomalies in tick 1",
		totalEvents, totalDelta, len(reps1[0].Anomalies))

	// A budget below one route view leaves each cache shard one entry,
	// so every sweep over the 48 destinations evicts and recomputes. The
	// view deltas must not change; only the counts of cached entries an
	// invalidation pass dropped or kept may, since the budget holds fewer.
	budgeted := opts
	budgeted.CacheBudget = 1 << 10
	reps3, err := watch(context.Background(), &bytes.Buffer{}, pf, budgeted)
	if err != nil {
		t.Fatal(err)
	}
	if len(reps3) != len(reps1) {
		t.Fatalf("budgeted watch gave %d tick reports, unbounded %d", len(reps3), len(reps1))
	}
	for i := range reps3 {
		free, capped := reps1[i], reps3[i]
		if capped.Invalidated+capped.Retained >= free.Invalidated+free.Retained {
			t.Fatalf("tick %d: budgeted cache held as many entries as the unbounded one: %+v vs %+v", i+1, capped, free)
		}
		free.Invalidated, free.Retained = 0, 0
		capped.Invalidated, capped.Retained = 0, 0
		if !reflect.DeepEqual(free, capped) {
			t.Fatalf("tick %d: budgeted report differs from unbounded:\n%+v\n%+v", i+1, capped, free)
		}
	}
}

// TestWatchHonorsCancellation: a canceled context stops the loop between
// ticks and returns the reports collected so far.
func TestWatchCanceled(t *testing.T) {
	pf := cliflags.Pipeline{World: cliflags.World{Scale: 0.1, Seed: 11}, Public: 4}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out bytes.Buffer
	reps, err := watch(ctx, &out, pf, watchOptions{Ticks: 4, Churn: 6, Dests: 16})
	if err == nil {
		t.Fatal("canceled watch returned no error")
	}
	if len(reps) != 0 {
		t.Fatalf("canceled-before-start watch produced %d reports", len(reps))
	}
}
