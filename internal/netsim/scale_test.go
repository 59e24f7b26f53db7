package netsim

import (
	"fmt"
	"runtime"
	"testing"

	"metascritic/internal/benchscale"
)

// manyMetroConfig builds a world spec with more metros than fit in one
// bitset word — the size class the historical generator rejected with
// "more than 64 metros not supported".
func manyMetroConfig(nMetros, asesPerMetro int) Config {
	countries := []struct{ c, cont string }{
		{"US", "NA"}, {"BR", "SA"}, {"DE", "EU"}, {"JP", "AS"}, {"AU", "OC"}, {"ZA", "AF"},
	}
	specs := make([]MetroSpec, nMetros)
	for i := range specs {
		r := countries[i%len(countries)]
		specs[i] = MetroSpec{
			Name:       fmt.Sprintf("M%03d", i),
			Country:    r.c,
			Continent:  r.cont,
			NumASes:    asesPerMetro,
			VPCoverage: 0.5,
			Primary:    i < 3,
		}
	}
	return Config{Seed: 11, Metros: specs}
}

// TestGenerateManyMetros pins the removal of the 64-metro hard limit: a
// 70-metro world must generate, and links must materialize at metros
// beyond bit 63 (i.e. the multi-word footprint bitset actually works).
func TestGenerateManyMetros(t *testing.T) {
	w := Generate(manyMetroConfig(70, 25))
	if len(w.G.Metros) != 70 {
		t.Fatalf("got %d metros, want 70", len(w.G.Metros))
	}
	high := 0
	for _, metros := range w.LinkMetros {
		for _, m := range metros {
			if m > 63 {
				high++
			}
		}
	}
	if high == 0 {
		t.Fatal("no links materialized at metros beyond index 63")
	}
	for mi, tr := range w.Truths {
		if mi > 63 && tr.NumLinks() > 0 {
			return
		}
	}
	t.Fatal("no truth matrix beyond metro 63 has links")
}

// TestGenerateWorkerInvariance pins the determinism contract of the
// parallel peering build: the same seed must yield a byte-identical
// world (full fingerprint, including adjacency insertion order) at any
// worker count. Not parallel: it sets GOMAXPROCS, which sizes the par.For
// pool.
func TestGenerateWorkerInvariance(t *testing.T) {
	cfg := manyMetroConfig(70, 20)
	procs := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(procs) })
	var want uint64
	for i, workers := range []int{1, 2, 7, 16} {
		runtime.GOMAXPROCS(workers)
		got := fingerprint(Generate(cfg))
		if i == 0 {
			want = got
			continue
		}
		if got != want {
			t.Fatalf("workers=%d: fingerprint %#x, want %#x", workers, got, want)
		}
	}
}

// TestInternetMetrosShape sanity-checks the synthesized Internet-scale
// metro set: the paper's six study metros stay primary, total capacity
// lands near the requested AS count, and there are enough metros to
// exercise the multi-word bitsets.
func TestInternetMetrosShape(t *testing.T) {
	specs := InternetMetros(100_000)
	if len(specs) <= 64 {
		t.Fatalf("got %d metros, want > 64", len(specs))
	}
	if !specs[0].Primary || specs[0].Name != "Amsterdam" {
		t.Fatalf("study metros missing from head: %+v", specs[0])
	}
	total := 0
	maxM := 0
	for _, s := range specs {
		total += s.NumASes
		if s.NumASes > maxM {
			maxM = s.NumASes
		}
	}
	if total < 80_000 || total > 130_000 {
		t.Fatalf("total metro capacity %d, want ~100k", total)
	}
	// The head must stay heavy-tailed but bounded: the largest metro's
	// truth matrix is O(members²) and must not dominate memory.
	if maxM > 12_000 {
		t.Fatalf("largest metro has %d ASes; truth matrix would blow up", maxM)
	}
}

// BenchmarkGenerate measures end-to-end world generation at Internet
// scales (wall clock + bytes allocated). Sizes honor
// METASCRITIC_BENCH_SCALE so `make bench` can run a shrunken version.
func BenchmarkGenerate(b *testing.B) {
	for _, ases := range []int{
		benchscale.N(10_000, 1_000),
		benchscale.N(100_000, 5_000),
	} {
		b.Run(fmt.Sprintf("ases=%d", ases), func(b *testing.B) {
			cfg := Config{Seed: 5, Metros: InternetMetros(ases)}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w := Generate(cfg)
				b.ReportMetric(float64(len(w.LinkMetros)), "links")
				b.ReportMetric(float64(w.G.N()), "ases")
			}
		})
	}
}
