package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func feq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestConfusionBasics(t *testing.T) {
	c := Confusion{TP: 8, FP: 2, TN: 5, FN: 2}
	if !feq(c.Precision(), 0.8, 1e-12) {
		t.Fatalf("precision %v", c.Precision())
	}
	if !feq(c.Recall(), 0.8, 1e-12) {
		t.Fatalf("recall %v", c.Recall())
	}
	if !feq(c.F1(), 0.8, 1e-12) {
		t.Fatalf("f1 %v", c.F1())
	}
	var zero Confusion
	if zero.Precision() != 0 || zero.Recall() != 0 || zero.F1() != 0 {
		t.Fatalf("zero confusion should be all zeros")
	}
}

func TestConfuse(t *testing.T) {
	scores := []float64{0.9, 0.6, 0.4, 0.1}
	labels := []bool{true, false, true, false}
	c := Confuse(scores, labels, 0.5)
	if c.TP != 1 || c.FP != 1 || c.FN != 1 || c.TN != 1 {
		t.Fatalf("confusion %+v", c)
	}
}

func TestPerfectClassifierCurves(t *testing.T) {
	scores := []float64{0.9, 0.8, 0.2, 0.1}
	labels := []bool{true, true, false, false}
	if a := AUPRC(scores, labels); !feq(a, 1.0, 1e-12) {
		t.Fatalf("AUPRC perfect = %v", a)
	}
	if a := AUC(scores, labels); !feq(a, 1.0, 1e-12) {
		t.Fatalf("AUC perfect = %v", a)
	}
}

func TestRandomClassifierAUC(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 4000
	scores := make([]float64, n)
	labels := make([]bool, n)
	for i := range scores {
		scores[i] = rng.Float64()
		labels[i] = rng.Float64() < 0.5
	}
	if a := AUC(scores, labels); !feq(a, 0.5, 0.03) {
		t.Fatalf("random AUC = %v, want ~0.5", a)
	}
}

func TestAUPRCRandomBaseline(t *testing.T) {
	// For random scores, AUPRC approaches the positive rate.
	rng := rand.New(rand.NewSource(2))
	n := 4000
	scores := make([]float64, n)
	labels := make([]bool, n)
	posRate := 0.3
	for i := range scores {
		scores[i] = rng.Float64()
		labels[i] = rng.Float64() < posRate
	}
	if a := AUPRC(scores, labels); !feq(a, posRate, 0.05) {
		t.Fatalf("random AUPRC = %v, want ~%v", a, posRate)
	}
}

func TestPRCurveMonotoneRecall(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	scores := make([]float64, 200)
	labels := make([]bool, 200)
	for i := range scores {
		scores[i] = rng.Float64()
		labels[i] = rng.Float64() < 0.4
	}
	pts := PRCurve(scores, labels)
	for i := 1; i < len(pts); i++ {
		if pts[i].X < pts[i-1].X-1e-12 {
			t.Fatalf("recall not monotone at %d", i)
		}
	}
	if last := pts[len(pts)-1]; !feq(last.X, 1.0, 1e-12) {
		t.Fatalf("final recall %v, want 1", last.X)
	}
}

func TestBestF1Threshold(t *testing.T) {
	scores := []float64{0.95, 0.9, 0.8, 0.3, 0.2, 0.1}
	labels := []bool{true, true, true, false, false, false}
	thr, f1 := BestF1Threshold(scores, labels)
	if !feq(f1, 1.0, 1e-12) {
		t.Fatalf("best F1 = %v, want 1", f1)
	}
	if thr <= 0.3 || thr > 0.8 {
		t.Fatalf("threshold %v should separate classes", thr)
	}
	if thr2, f := BestF1Threshold(nil, nil); thr2 != 0 || f != 0 {
		t.Fatalf("empty input should return zeros")
	}
}

func TestMean(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); !feq(m, 5, 1e-12) {
		t.Fatalf("mean %v", m)
	}
	if Mean(nil) != 0 {
		t.Fatalf("empty mean")
	}
}

func TestPearson(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{2, 4, 6, 8, 10}
	if p := Pearson(x, y); !feq(p, 1, 1e-12) {
		t.Fatalf("perfect corr %v", p)
	}
	yneg := []float64{10, 8, 6, 4, 2}
	if p := Pearson(x, yneg); !feq(p, -1, 1e-12) {
		t.Fatalf("perfect anticorr %v", p)
	}
	if p := Pearson(x, []float64{3, 3, 3, 3, 3}); p != 0 {
		t.Fatalf("constant series corr %v", p)
	}
}

func TestCorrelationRatio(t *testing.T) {
	// Categories perfectly determine values -> η = 1.
	cats := []int{0, 0, 1, 1, 2, 2}
	vals := []float64{1, 1, 5, 5, 9, 9}
	if e := CorrelationRatio(cats, vals); !feq(e, 1, 1e-12) {
		t.Fatalf("η = %v, want 1", e)
	}
	// Category means identical -> η = 0.
	vals2 := []float64{1, 9, 1, 9, 1, 9}
	if e := CorrelationRatio(cats, vals2); !feq(e, 0, 1e-12) {
		t.Fatalf("η = %v, want 0", e)
	}
	if e := CorrelationRatio(nil, nil); e != 0 {
		t.Fatalf("empty η = %v", e)
	}
}

func TestECDF(t *testing.T) {
	e := NewECDF([]float64{3, 1, 2})
	if v := e.At(0.5); v != 0 {
		t.Fatalf("ECDF below min %v", v)
	}
	if v := e.At(1); !feq(v, 1.0/3, 1e-12) {
		t.Fatalf("ECDF at 1 = %v", v)
	}
	if v := e.At(2.5); !feq(v, 2.0/3, 1e-12) {
		t.Fatalf("ECDF at 2.5 = %v", v)
	}
	if v := e.At(10); v != 1 {
		t.Fatalf("ECDF above max %v", v)
	}
	var empty ECDF
	if empty.At(1) != 0 {
		t.Fatalf("empty ECDF")
	}
}

func TestBootstrapCI(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = rng.NormFloat64() + 10
	}
	mean, lo, hi := BootstrapCI(xs, 500, 0.05, rng)
	if lo > mean || mean > hi {
		t.Fatalf("CI [%v,%v] should bracket mean %v", lo, hi, mean)
	}
	if !feq(mean, 10, 0.2) {
		t.Fatalf("mean %v, want ~10", mean)
	}
	if hi-lo > 0.5 {
		t.Fatalf("CI width %v too wide", hi-lo)
	}
	m, l, h := BootstrapCI(nil, 100, 0.05, rng)
	if m != 0 || l != 0 || h != 0 {
		t.Fatalf("empty bootstrap")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if q := Quantile(xs, 0); q != 1 {
		t.Fatalf("q0 %v", q)
	}
	if q := Quantile(xs, 1); q != 4 {
		t.Fatalf("q1 %v", q)
	}
	if q := Quantile(xs, 0.5); !feq(q, 2.5, 1e-12) {
		t.Fatalf("median %v", q)
	}
	if q := Quantile(nil, 0.5); q != 0 {
		t.Fatalf("empty quantile %v", q)
	}
}

// Property: AUC is invariant under strictly monotone score transforms.
func TestAUCMonotoneInvariance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(50)
		scores := make([]float64, n)
		labels := make([]bool, n)
		hasPos, hasNeg := false, false
		for i := range scores {
			scores[i] = rng.NormFloat64()
			labels[i] = rng.Float64() < 0.5
			if labels[i] {
				hasPos = true
			} else {
				hasNeg = true
			}
		}
		if !hasPos || !hasNeg {
			return true
		}
		a1 := AUC(scores, labels)
		transformed := make([]float64, n)
		for i, s := range scores {
			transformed[i] = math.Exp(s) // strictly increasing
		}
		a2 := AUC(transformed, labels)
		return feq(a1, a2, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: precision and recall are always within [0,1], and AUPRC too.
func TestMetricsBoundedProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(60)
		scores := make([]float64, n)
		labels := make([]bool, n)
		for i := range scores {
			scores[i] = rng.NormFloat64()
			labels[i] = rng.Float64() < 0.5
		}
		thr := rng.NormFloat64()
		c := Confuse(scores, labels, thr)
		inUnit := func(v float64) bool { return v >= 0 && v <= 1+1e-12 }
		return inUnit(c.Precision()) && inUnit(c.Recall()) && inUnit(c.F1()) &&
			inUnit(AUPRC(scores, labels)) && inUnit(AUC(scores, labels))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
