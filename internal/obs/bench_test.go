package obs_test

// Evidence-layer benchmarks (see DESIGN.md §7.9): Clone cost (the
// per-snapshot isolation price the engine pays for every metro) and the
// per-round Estimate refresh cost (paid after every measurement batch of
// the rank loop). Sized via METASCRITIC_BENCH_SCALE like the other
// micro-benchmarks; `make bench` runs them.

import (
	"sync"
	"testing"

	"metascritic/internal/benchscale"
	"metascritic/internal/netsim"
	"metascritic/internal/obs"
	"metascritic/internal/traceroute"
)

var (
	obsBenchOnce sync.Once
	obsBenchW    *netsim.World
	obsBenchEng  *traceroute.Engine
	obsBenchSeed []traceroute.Trace
	obsBenchNew  []traceroute.Trace
)

// obsBenchSetup generates a world and pre-simulates two trace sets: a seed
// history (the accumulated evidence a store carries mid-campaign) and a
// stream of fresh targeted traces (the per-round increment).
func obsBenchSetup(b *testing.B) {
	b.Helper()
	obsBenchOnce.Do(func() {
		scale := 0.15 * benchscale.Scale() / 0.05 // track RunMetro's sizing at scale 0.05
		if scale <= 0 {
			scale = 0.15
		}
		obsBenchW = netsim.Generate(netsim.Config{Seed: 7, Metros: netsim.DefaultMetros(scale)})
		obsBenchEng = traceroute.NewEngine(obsBenchW)
		seedN := benchscale.N(24000, 600)
		newN := benchscale.N(4000, 200)
		probes := obsBenchW.Probes
		n := obsBenchW.G.N()
		for k := 0; k < seedN+newN; k++ {
			pr := probes[k%len(probes)]
			dst := (k*131 + 17) % n
			if dst == pr.AS {
				dst = (dst + 1) % n
			}
			tr := obsBenchEng.Run(pr.AS, pr.Metro, dst)
			if k < seedN {
				obsBenchSeed = append(obsBenchSeed, tr)
			} else {
				obsBenchNew = append(obsBenchNew, tr)
			}
		}
	})
}

func obsBenchStore(b *testing.B) *obs.Store {
	b.Helper()
	obsBenchSetup(b)
	s := obs.NewStore(obsBenchW.G, obsBenchEng.Reg.Resolve)
	for _, tr := range obsBenchSeed {
		s.AddTrace(tr)
	}
	return s
}

// BenchmarkStoreClone measures the snapshot-isolation cost: one Clone per
// engine metro run.
func BenchmarkStoreClone(b *testing.B) {
	s := obsBenchStore(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := s.Clone()
		if c == nil {
			b.Fatal("nil clone")
		}
	}
}

// BenchmarkStoreEstimate measures one measurement-loop round: ingest a
// fresh trace, then bring E_m up to date — via a from-scratch Estimate
// (full) or by refreshing the tracked estimate (incremental).
func BenchmarkStoreEstimate(b *testing.B) {
	obsBenchSetup(b)
	metro := obsBenchW.PrimaryMetros()[0]
	members := obsBenchW.G.Metros[metro].Members

	b.Run("full", func(b *testing.B) {
		s := obsBenchStore(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.AddTrace(obsBenchNew[i%len(obsBenchNew)])
			est := s.Estimate(metro, members, obs.NegMetascritic)
			if est == nil {
				b.Fatal("nil estimate")
			}
		}
	})

	b.Run("incremental", func(b *testing.B) {
		s := obsBenchStore(b)
		est := s.Estimate(metro, members, obs.NegMetascritic)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.AddTrace(obsBenchNew[i%len(obsBenchNew)])
			if s.Refresh(est) != est {
				b.Fatal("refresh replaced the estimate")
			}
		}
	})
}
