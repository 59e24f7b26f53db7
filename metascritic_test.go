package metascritic

import (
	"math"
	"math/rand"
	"testing"

	"metascritic/internal/netsim"
	"metascritic/internal/obs"
	"metascritic/internal/stats"
)

func smallWorld(seed int64) *netsim.World {
	return netsim.Generate(netsim.Config{Seed: seed, Metros: netsim.DefaultMetros(0.12)})
}

// requireRatings checks a result's ratings triangle: it covers the members,
// every cell reads the same from both sides, and, when the result keeps
// its factors, every cell equals the factors' Rating bit for bit.
func requireRatings(t *testing.T, res *Result) {
	t.Helper()
	n := len(res.Members)
	if res.Ratings.N() != n || len(res.Ratings.Data) != n*(n+1)/2 {
		t.Fatalf("ratings sized %d (%d values) for %d members", res.Ratings.N(), len(res.Ratings.Data), n)
	}
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := res.Ratings.At(i, j)
			if mirror := res.Ratings.At(j, i); math.Float64bits(mirror) != math.Float64bits(v) {
				t.Fatalf("ratings (%d,%d) = %v but (%d,%d) = %v", i, j, v, j, i, mirror)
			}
			if res.Factors != nil {
				if fv := res.Factors.Rating(i, j); math.Float64bits(fv) != math.Float64bits(v) {
					t.Fatalf("ratings (%d,%d) = %v, factors give %v", i, j, v, fv)
				}
			}
		}
	}
}

func TestBuildFeatures(t *testing.T) {
	w := smallWorld(1)
	members := w.G.Metros[0].Members
	f := BuildFeatures(w.G, members)
	if f.Rows != len(members) {
		t.Fatalf("feature rows %d != members %d", f.Rows, len(members))
	}
	// Each one-hot block sums to one per row.
	for r := 0; r < f.Rows; r++ {
		sum := 0.0
		for c := 0; c < 7; c++ { // class block
			sum += f.At(r, c)
		}
		if sum != 1 {
			t.Fatalf("class one-hot sums to %v", sum)
		}
	}
}

func TestSeedPublicMeasurements(t *testing.T) {
	w := smallWorld(2)
	p := NewPipeline(w)
	rng := rand.New(rand.NewSource(1))
	n := p.SeedPublicMeasurements(3, rng)
	if n == 0 {
		t.Fatalf("no public measurements issued")
	}
	if p.Engine.Issued() != n {
		t.Fatalf("engine issued %d, reported %d", p.Engine.Issued(), n)
	}
}

func TestRunMetroEndToEnd(t *testing.T) {
	w := smallWorld(3)
	p := NewPipeline(w)
	rng := rand.New(rand.NewSource(1))
	p.SeedPublicMeasurements(8, rng)

	metro := w.G.MetroOfName("Tokyo").Index
	cfg := DefaultConfig()
	cfg.BatchSize = 120
	cfg.MaxMeasurements = 6000
	cfg.Rank.MaxRank = 16
	cfg.Rank.Iterations = 8
	cfg.Tune = true
	res := mustRun(t, p, metro, cfg)

	if res.Rank < 1 {
		t.Fatalf("rank %d", res.Rank)
	}
	if res.Measurements == 0 {
		t.Fatalf("no targeted measurements issued")
	}
	if res.Measurements > cfg.MaxMeasurements {
		t.Fatalf("budget exceeded: %d > %d", res.Measurements, cfg.MaxMeasurements)
	}
	requireRatings(t, res)
	if len(res.Calibrations) != res.Measurements {
		t.Fatalf("calibration records %d != measurements %d", len(res.Calibrations), res.Measurements)
	}

	// Score the completed ratings against ground truth (cross-validation
	// quality gate: AUC should be clearly better than chance).
	truth := w.Truths[metro]
	var scores []float64
	var labels []bool
	for i := 0; i < len(res.Members); i++ {
		for j := i + 1; j < len(res.Members); j++ {
			scores = append(scores, res.Ratings.At(i, j))
			labels = append(labels, truth.M.Has(i, j))
		}
	}
	auc := stats.AUC(scores, labels)
	if auc < 0.8 {
		t.Fatalf("end-to-end AUC = %.3f, want >= 0.8", auc)
	}

	// The measured estimate must agree with ground truth on strong
	// positive entries (direct same-metro observations are links).
	errs, checks := 0, 0
	for i := 0; i < len(res.Members); i++ {
		for j := i + 1; j < len(res.Members); j++ {
			v, ok := res.Estimate.Value(res.Members[i], res.Members[j])
			if !ok || v < 0.99 {
				continue
			}
			checks++
			if !truth.M.Has(i, j) {
				errs++
			}
		}
	}
	if checks == 0 {
		t.Fatalf("no strong positive measurements")
	}
	if frac := float64(errs) / float64(checks); frac > 0.1 {
		t.Fatalf("measured same-metro links wrong at rate %.2f", frac)
	}
}

func TestRunMetroRespectsNegPolicy(t *testing.T) {
	w := smallWorld(4)
	p := NewPipeline(w)
	rng := rand.New(rand.NewSource(1))
	p.SeedPublicMeasurements(6, rng)
	metro := w.G.MetroOfName("Tokyo").Index
	cfg := DefaultConfig()
	cfg.BatchSize = 60
	cfg.MaxMeasurements = 600
	cfg.Rank.MaxRank = 6
	cfg.Rank.Iterations = 4
	cfg.NegPolicy = obs.NegNone
	res := mustRun(t, p, metro, cfg)
	for i := 0; i < len(res.Members); i++ {
		for j := i + 1; j < len(res.Members); j++ {
			if v, ok := res.Estimate.Value(res.Members[i], res.Members[j]); ok && v < 0 {
				t.Fatalf("NegNone produced a negative entry %v", v)
			}
		}
	}
}

func TestResultAccessors(t *testing.T) {
	w := smallWorld(5)
	p := NewPipeline(w)
	rng := rand.New(rand.NewSource(1))
	p.SeedPublicMeasurements(5, rng)
	metro := w.G.MetroOfName("Osaka").Index
	cfg := DefaultConfig()
	cfg.BatchSize = 50
	cfg.MaxMeasurements = 300
	cfg.Rank.MaxRank = 5
	cfg.Rank.Iterations = 4
	res := mustRun(t, p, metro, cfg)

	links := res.LinksAbove(0.5)
	for _, pr := range links {
		if res.Rating(pr.A, pr.B) < 0.5 {
			t.Fatalf("LinksAbove returned a low-rated pair")
		}
	}
	// Rating for a non-member is zero.
	nonMember := -1
	for i := 0; i < w.G.N(); i++ {
		if _, ok := res.Estimate.Index[i]; !ok {
			nonMember = i
			break
		}
	}
	if nonMember >= 0 && res.Rating(nonMember, res.Members[0]) != 0 {
		t.Fatalf("non-member rating should be 0")
	}
}
