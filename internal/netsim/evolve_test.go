package netsim

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"metascritic/internal/benchscale"
)

// churnSpec is the standard test batch: enough of every event kind to
// exercise all apply paths.
var churnSpec = EvolveSpec{
	LinkDowns:  40,
	Depeerings: 15,
	LinkUps:    40,
	NewASes:    5,
	IXPJoins:   10,
}

// TestEvolveWorkerInvariance mirrors TestGenerateWorkerInvariance for
// the mutation API: the same (world, seed) must yield a byte-identical
// batch and post-batch world at any worker count. Not parallel: it sets
// GOMAXPROCS, which sizes the par.For pool.
func TestEvolveWorkerInvariance(t *testing.T) {
	cfg := manyMetroConfig(70, 20)
	procs := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(procs) })
	var want uint64
	var wantEvents int
	for i, workers := range []int{1, 2, 7, 16} {
		runtime.GOMAXPROCS(workers)
		w := Generate(cfg)
		batch, err := w.Evolve(rand.New(rand.NewSource(7)), churnSpec)
		if err != nil {
			t.Fatalf("workers=%d: Evolve: %v", workers, err)
		}
		got := fingerprint(w)
		if i == 0 {
			want, wantEvents = got, len(batch.Events)
			continue
		}
		if len(batch.Events) != wantEvents {
			t.Fatalf("workers=%d: %d events, want %d", workers, len(batch.Events), wantEvents)
		}
		if got != want {
			t.Fatalf("workers=%d: fingerprint %#x, want %#x", workers, got, want)
		}
	}
}

// TestEvolveApplyReplica pins the replay contract: applying the batch to
// an identical replica world (no rng) reproduces the evolved world
// byte-identically, including across several epochs.
func TestEvolveApplyReplica(t *testing.T) {
	cfg := manyMetroConfig(30, 25)
	live, replica := Generate(cfg), Generate(cfg)
	rng := rand.New(rand.NewSource(3))
	for epoch := uint32(1); epoch <= 3; epoch++ {
		batch, err := live.Evolve(rng, churnSpec)
		if err != nil {
			t.Fatalf("epoch %d: Evolve: %v", epoch, err)
		}
		if batch.Epoch != epoch || live.Epoch != epoch {
			t.Fatalf("epoch %d: batch=%d world=%d", epoch, batch.Epoch, live.Epoch)
		}
		if err := replica.Apply(batch); err != nil {
			t.Fatalf("epoch %d: Apply: %v", epoch, err)
		}
		if lf, rf := fingerprint(live), fingerprint(replica); lf != rf {
			t.Fatalf("epoch %d: live %#x != replica %#x", epoch, lf, rf)
		}
	}
}

// TestEvolveEventEffects sanity-checks that each event kind actually
// moved the world: links died and were born, an AS arrived with transit,
// IXPs gained members, and the ground-truth matrices track LinkMetros.
func TestEvolveEventEffects(t *testing.T) {
	w := Generate(manyMetroConfig(30, 25))
	nBefore := w.G.N()
	linksBefore := len(w.LinkMetros)
	rng := rand.New(rand.NewSource(9))
	batch, err := w.Evolve(rng, churnSpec)
	if err != nil {
		t.Fatalf("Evolve: %v", err)
	}
	counts := map[EventKind]int{}
	for _, ev := range batch.Events {
		counts[ev.Kind]++
	}
	for _, k := range []EventKind{LinkDown, Depeer, LinkUp, NewASArrival, IXPJoin} {
		if counts[k] == 0 {
			t.Fatalf("batch has no %s events (got %v)", k, counts)
		}
	}
	if w.G.N() != nBefore+counts[NewASArrival] {
		t.Fatalf("N = %d, want %d", w.G.N(), nBefore+counts[NewASArrival])
	}
	if len(w.Responsive) != w.G.N() || w.Latent.Rows != w.G.N() {
		t.Fatalf("per-AS state not grown: responsive=%d latent=%d n=%d",
			len(w.Responsive), w.Latent.Rows, w.G.N())
	}
	if len(w.LinkMetros) == linksBefore {
		t.Fatal("link count unchanged by churn batch")
	}
	// Every new AS must have bought transit and joined its metro.
	for _, ev := range batch.Events {
		if ev.Kind != NewASArrival {
			continue
		}
		idx := -1
		for i := range w.G.ASes {
			if w.G.ASes[i].ASN == ev.New.ASN {
				idx = i
				break
			}
		}
		if idx < 0 {
			t.Fatalf("new AS %d not in graph", ev.New.ASN)
		}
		if len(w.G.Providers[idx]) == 0 {
			t.Fatalf("new AS %d has no providers", ev.New.ASN)
		}
		if !containsInt(w.G.Metros[ev.New.Metros[0]].Members, idx) {
			t.Fatalf("new AS %d missing from home metro members", ev.New.ASN)
		}
	}
	// Ground truth must agree with LinkMetros cell-by-cell.
	for pr, metros := range w.LinkMetros {
		for _, m := range metros {
			tr := w.Truths[m]
			i, ok1 := tr.Index[pr.A]
			j, ok2 := tr.Index[pr.B]
			if !ok1 || !ok2 {
				continue
			}
			if !tr.M.Has(i, j) || !tr.M.Has(j, i) {
				t.Fatalf("truth at metro %d missing link %v", m, pr)
			}
		}
	}
	// And no truth cell may claim a link LinkMetros doesn't have.
	for m, tr := range w.Truths {
		for i, a := range tr.Members {
			for j := i + 1; j < len(tr.Members); j++ {
				if tr.M.Has(i, j) && !containsInt(w.LinkMetros[MakePair(a, tr.Members[j])], m) {
					t.Fatalf("truth at metro %d has phantom link %d-%d", m, a, tr.Members[j])
				}
			}
		}
	}
}

// TestEvolveDownsRemoveRelationships pins the down/depeer semantics:
// a Depeer erases the pair everywhere; a LinkDown only erases its metro.
func TestEvolveDownsRemoveRelationships(t *testing.T) {
	w := Generate(manyMetroConfig(30, 25))
	rng := rand.New(rand.NewSource(21))
	batch, err := w.Evolve(rng, EvolveSpec{LinkDowns: 30, Depeerings: 30})
	if err != nil {
		t.Fatalf("Evolve: %v", err)
	}
	for _, ev := range batch.Events {
		pr := MakePair(ev.A, ev.B)
		switch ev.Kind {
		case Depeer:
			if _, ok := w.Rel[pr]; ok {
				t.Fatalf("depeered pair %v still has a relationship", pr)
			}
			if w.G.HasPeer(pr.A, pr.B) {
				t.Fatalf("depeered pair %v still in adjacency", pr)
			}
		case LinkDown:
			if containsInt(w.LinkMetros[pr], ev.Metros[0]) {
				t.Fatalf("downed link %v still present at metro %d", pr, ev.Metros[0])
			}
			if _, ok := w.Rel[pr]; ok != w.G.HasPeer(pr.A, pr.B) {
				t.Fatalf("pair %v: Rel and adjacency disagree after LinkDown", pr)
			}
		}
	}
}

func TestApplyRejectsEpochSkew(t *testing.T) {
	w := Generate(manyMetroConfig(5, 10))
	if err := w.Apply(&EventBatch{Epoch: 2}); err == nil {
		t.Fatal("Apply accepted a batch from the future")
	}
	if err := w.Apply(&EventBatch{Epoch: 0}); err == nil {
		t.Fatal("Apply accepted a stale batch")
	}
	if w.Epoch != 0 {
		t.Fatalf("epoch moved to %d on rejected batches", w.Epoch)
	}
}

// BenchmarkEvolve measures one churn batch end-to-end (candidate scan +
// commit + apply) on an Internet-scale world. Sizes honor
// METASCRITIC_BENCH_SCALE so `make bench` can run a shrunken version.
func BenchmarkEvolve(b *testing.B) {
	for _, ases := range []int{
		benchscale.N(10_000, 1_000),
		benchscale.N(100_000, 5_000),
	} {
		b.Run(fmt.Sprintf("ases=%d", ases), func(b *testing.B) {
			w := Generate(Config{Seed: 5, Metros: InternetMetros(ases)})
			rng := rand.New(rand.NewSource(17))
			spec := EvolveSpec{LinkDowns: 100, Depeerings: 25, LinkUps: 100, NewASes: 10, IXPJoins: 20}
			b.ReportAllocs()
			b.ResetTimer()
			events := 0
			for i := 0; i < b.N; i++ {
				batch, err := w.Evolve(rng, spec)
				if err != nil {
					b.Fatal(err)
				}
				events += len(batch.Events)
			}
			b.ReportMetric(float64(events)/float64(b.N), "events/op")
		})
	}
}

// TestEvolveSustainedChurn drives many consecutive batches on an
// Internet-style world. Regression: a route-server join used to emit a
// multilateral LinkUp against a co-member the joiner already had a
// transit relationship with, which Apply rejects (surfaced by
// BenchmarkEvolve after a few epochs of accumulated churn).
func TestEvolveSustainedChurn(t *testing.T) {
	w := Generate(Config{Seed: 5, Metros: InternetMetros(1000)})
	rng := rand.New(rand.NewSource(17))
	spec := EvolveSpec{LinkDowns: 100, Depeerings: 25, LinkUps: 100, NewASes: 10, IXPJoins: 20}
	for i := 0; i < 12; i++ {
		if _, err := w.Evolve(rng, spec); err != nil {
			t.Fatalf("epoch %d: %v", i+1, err)
		}
	}
	if w.Epoch != 12 {
		t.Fatalf("epoch = %d after 12 batches", w.Epoch)
	}
}
