package probe

import (
	"math/rand"
	"testing"
)

// TestStreamMatchesRandSource interleaves every kind of draw the pipeline
// makes — Int63, Uint64, Intn, Float64, Shuffle — with bulk skips against
// bounds that often stop them early, over more than a million outputs (so
// across many block refills), and requires the stream and a plain
// rand.NewSource to agree on every value. A skip stops exactly before the
// first output above its bound, which the reference confirms.
func TestStreamMatchesRandSource(t *testing.T) {
	bounds := []uint64{int63Mask, floatBound, intnBound(7), intnBound(1<<30 + 1), 1 << 62, 1 << 60}
	for _, seed := range []int64{0, 1, -7, 1<<31 - 1, 1 << 40} {
		st := NewStream(seed)
		got, want := st.Rand(), rand.New(rand.NewSource(seed))
		ops := rand.New(rand.NewSource(seed + 99))
		outputs := 0
		perm := make([]int, 40)
		for outputs < 1_200_000 {
			switch ops.Intn(6) {
			case 0:
				if a, b := got.Int63(), want.Int63(); a != b {
					t.Fatalf("seed %d after %d outputs: Int63 %d, want %d", seed, outputs, a, b)
				}
				outputs++
			case 1:
				if a, b := got.Uint64(), want.Uint64(); a != b {
					t.Fatalf("seed %d after %d outputs: Uint64 %d, want %d", seed, outputs, a, b)
				}
				outputs++
			case 2:
				n := 1 + ops.Intn(1000)
				if a, b := got.Intn(n), want.Intn(n); a != b {
					t.Fatalf("seed %d after %d outputs: Intn(%d) %d, want %d", seed, outputs, n, a, b)
				}
				outputs++
			case 3:
				if a, b := got.Float64(), want.Float64(); a != b {
					t.Fatalf("seed %d after %d outputs: Float64 %v, want %v", seed, outputs, a, b)
				}
				outputs++
			case 4:
				for k := range perm {
					perm[k] = k
				}
				ref := append([]int(nil), perm...)
				got.Shuffle(len(perm), func(a, b int) { perm[a], perm[b] = perm[b], perm[a] })
				want.Shuffle(len(ref), func(a, b int) { ref[a], ref[b] = ref[b], ref[a] })
				for k := range perm {
					if perm[k] != ref[k] {
						t.Fatalf("seed %d after %d outputs: Shuffle differs at %d", seed, outputs, k)
					}
				}
				outputs += len(perm)
			case 5:
				n := ops.Intn(3000)
				bound := bounds[ops.Intn(len(bounds))]
				took := st.skip(n, bound)
				if took > n {
					t.Fatalf("seed %d: skip(%d) took %d outputs", seed, n, took)
				}
				for k := 0; k < took; k++ {
					if x := uint64(want.Int63()); x > bound {
						t.Fatalf("seed %d: skip took output %d = %d above its bound %d", seed, k, x, bound)
					}
				}
				if took < n {
					if x := uint64(want.Int63()); x <= bound {
						t.Fatalf("seed %d: skip stopped at %d of %d before %d, within its bound %d", seed, took, n, x, bound)
					}
					got.Int63() // the output it stopped before
				}
				outputs += took
			}
		}
		if a, b := got.Int63(), want.Int63(); a != b {
			t.Fatalf("seed %d: streams diverged by the end", seed)
		}
	}
}

// TestStreamSkipFallsBackMidRun replays runs of measurements whose
// categories include one of about 2³⁰ entries, where Intn rejects about
// half its outputs, so a bulk skip nearly always stops early and the
// per-draw walk (skipFrom, resuming at the draw the skip reached) takes
// over mid-run. The stream must end where a plain per-draw replay does.
func TestStreamSkipFallsBackMidRun(t *testing.T) {
	const heavy = 1<<30 + 1
	vpSizes := []int{1, 2, 24, 25, 300, heavy}
	midRun := 0
	for seed := int64(1); seed <= 200; seed++ {
		cfg := rand.New(rand.NewSource(-seed))
		var vcs []vpCat
		var tcs []tgtCat
		run := noDraws
		for k := 1 + cfg.Intn(8); k > 0; k-- {
			vc := newVPCat(0, vpSizes[cfg.Intn(len(vpSizes))], nil, nil, nil)
			tn := 1 + cfg.Intn(5)
			if cfg.Intn(4) == 0 {
				tn = heavy
			}
			tc := tgtCat{accept: intnBound(tn)}
			vcs, tcs = append(vcs, vc), append(tcs, tc)
			run = run.plus(measureRun(&vc, &tc))
		}
		st := NewStream(seed)
		got, want := st.Rand(), rand.New(rand.NewSource(seed))
		done := st.skip(run.draws, run.bound)
		if done > 0 && done < run.draws {
			midRun++
		}
		for k := range vcs {
			skipFrom(&vcs[k], &tcs[k], 0, want)
			done = skipFrom(&vcs[k], &tcs[k], done, got)
		}
		if done != 0 {
			t.Fatalf("seed %d: %d skipped draws left over", seed, done)
		}
		if a, b := got.Int63(), want.Int63(); a != b {
			t.Fatalf("seed %d: bulk skip with fallback diverged from the per-draw replay", seed)
		}
	}
	if midRun < 20 {
		t.Fatalf("only %d of 200 runs fell back mid-run", midRun)
	}
}

// TestStreamSeedRecaptures reseeds a stream that has run past several
// refills, through its *rand.Rand as the selector benchmark does, and
// requires it to restart at the new seed's first output.
func TestStreamSeedRecaptures(t *testing.T) {
	st := NewStream(3)
	r := st.Rand()
	for k := 0; k < 5000; k++ {
		r.Int63()
	}
	st.skip(100, int63Mask)
	r.Seed(11)
	want := rand.New(rand.NewSource(11))
	for k := 0; k < 2000; k++ {
		if a, b := r.Int63(), want.Int63(); a != b {
			t.Fatalf("output %d after reseeding: %d, want %d", k, a, b)
		}
	}
}
