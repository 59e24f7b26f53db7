package explain

import (
	"math"
	"math/rand"
	"testing"

	"metascritic/internal/asgraph"
	"metascritic/internal/ipmap"
	"metascritic/internal/obs"
	"metascritic/internal/traceroute"
)

func feq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestFitSurrogateRecoversLinearModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d, n := 4, 400
	trueW := []float64{2, -1, 0.5, 0}
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		X[i] = make([]float64, d)
		for k := range X[i] {
			X[i][k] = rng.NormFloat64()
		}
		y[i] = 3.0
		for k := range trueW {
			y[i] += trueW[k] * X[i][k]
		}
	}
	s := FitSurrogate(X, y, 1e-6)
	for k := range trueW {
		if !feq(s.Weights[k], trueW[k], 1e-6) {
			t.Fatalf("weights %v, want %v", s.Weights, trueW)
		}
	}
	if !feq(s.Predict(X[0]), y[0], 1e-6) {
		t.Fatalf("predict %v, want %v", s.Predict(X[0]), y[0])
	}
}

func TestLinearShapleyEfficiency(t *testing.T) {
	// Shapley values must sum to f(x) - baseline (efficiency axiom).
	rng := rand.New(rand.NewSource(2))
	d, n := 5, 200
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		X[i] = make([]float64, d)
		for k := range X[i] {
			X[i][k] = rng.NormFloat64()
		}
		y[i] = X[i][0]*4 - X[i][3] + rng.NormFloat64()*0.01
	}
	s := FitSurrogate(X, y, 1e-4)
	for i := 0; i < 10; i++ {
		phi := s.Shapley(X[i])
		sum := 0.0
		for _, p := range phi {
			sum += p
		}
		if !feq(sum, s.Predict(X[i])-s.Baseline, 1e-9) {
			t.Fatalf("efficiency violated: sum %v vs %v", sum, s.Predict(X[i])-s.Baseline)
		}
	}
}

func TestForceAndSummary(t *testing.T) {
	names := []string{"a", "b", "c"}
	x := []float64{1, 2, 3}
	phi := []float64{0.1, -0.9, 0.5}
	attrs := Force(names, x, phi)
	if attrs[0].Feature != "b" || attrs[1].Feature != "c" || attrs[2].Feature != "a" {
		t.Fatalf("force order wrong: %+v", attrs)
	}
	sum := Summarize(names, [][]float64{phi, {0.2, 0.1, -0.1}})
	if sum[0].Feature != "b" {
		t.Fatalf("summary order wrong: %+v", sum)
	}
	if got := Summarize(names, nil); got != nil {
		t.Fatalf("empty summary should be nil")
	}
	txt := FormatForce(0.1, 0.6, attrs, 2)
	if txt == "" {
		t.Fatalf("empty force text")
	}
}

func TestPairFeaturizer(t *testing.T) {
	g := asgraph.NewGraph()
	g.Continents = []string{"EU"}
	g.Countries = []asgraph.Country{{Code: "NL", Continent: 0}}
	g.Metros = []*asgraph.Metro{{Index: 0, Name: "Amsterdam", Country: 0}}
	g.IXPs = []*asgraph.IXP{{Index: 0, Name: "IX", Metro: 0}}
	for i := 0; i < 3; i++ {
		g.AddAS(&asgraph.AS{ASN: 100 + i, Metros: []int{0}, Eyeballs: 1000 * (i + 1), AddrSpace: 256,
			Class: asgraph.Stub, Policy: asgraph.Open, Traffic: asgraph.Balanced})
	}
	g.ASes[0].IXPs = []int{0}
	g.ASes[1].IXPs = []int{0}

	// Address encoding: (AS+1)*10 + metro, so zero stays invalid.
	resolve := func(a ipmap.Addr) (ipmap.Info, bool) {
		if a == 0 {
			return ipmap.Info{}, false
		}
		return ipmap.Info{AS: int(a)/10 - 1, Metro: int(a) % 10, IXP: -1}, true
	}
	store := obs.NewStore(g, resolve)
	store.AddTrace(traceroute.Trace{
		VPAS: 0, VPMetro: 0, DstAS: 1,
		Hops: []traceroute.Hop{{Addr: 10, Responsive: true}, {Addr: 20, Responsive: true}},
	})
	est := store.Estimate(0, []int{0, 1, 2}, obs.NegMetascritic)
	pf := NewPairFeaturizer(g, est, func(a, b int) bool { return true })
	x := pf.Features(0, 1)
	if len(x) != NumFeatures {
		t.Fatalf("feature dim %d, want %d", len(x), NumFeatures)
	}
	byName := map[string]float64{}
	for k, n := range FeatureNames {
		byName[n] = x[k]
	}
	if byName["Overlapping IXP"] != 1 {
		t.Fatalf("overlapping IXP = %v", byName["Overlapping IXP"])
	}
	if byName["Overlapping Facility"] != 1 {
		t.Fatalf("overlapping facility = %v", byName["Overlapping Facility"])
	}
	if byName["ASN 1"] != 100 || byName["ASN 2"] != 101 {
		t.Fatalf("ASN features wrong")
	}
	if byName["# of Existing Links 1"] != 1 {
		t.Fatalf("existing-link count = %v", byName["# of Existing Links 1"])
	}
	// Pair (0,2): no facility overlap function effect; AS 2 has no IXP.
	x2 := pf.Features(0, 2)
	byName2 := map[string]float64{}
	for k, n := range FeatureNames {
		byName2[n] = x2[k]
	}
	if byName2["Overlapping IXP"] != 0 {
		t.Fatalf("pair (0,2) shares no IXP")
	}
}

func TestFitSurrogateEmpty(t *testing.T) {
	s := FitSurrogate(nil, nil, 1)
	if len(s.Weights) != 0 {
		t.Fatalf("empty fit should have no weights")
	}
}
