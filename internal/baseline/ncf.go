package baseline

import (
	"math"
	"math/rand"

	"metascritic/internal/mat"
)

// NCFConfig tunes the neural collaborative filtering model of Appx. E.2: a
// multi-layer perceptron over per-AS embeddings (and optional side
// features) trained with SGD on the observed ratings.
type NCFConfig struct {
	EmbedDim  int
	HiddenDim int
	Epochs    int
	LearnRate float64
	L2        float64
	Seed      int64
}

// DefaultNCFConfig returns the architecture used in the comparison.
func DefaultNCFConfig() NCFConfig {
	return NCFConfig{EmbedDim: 8, HiddenDim: 24, Epochs: 60, LearnRate: 0.03, L2: 1e-4, Seed: 1}
}

// NCF is the trained model.
type NCF struct {
	cfg   NCFConfig
	n     int
	fdim  int
	embed *mat.Matrix // n × EmbedDim
	w1    *mat.Matrix // HiddenDim × inputDim
	b1    []float64
	w2    []float64
	b2    float64
	// w3 weights the GMF path: the element-wise product of the two
	// embeddings (NeuMF combines GMF and MLP).
	w3     []float64
	feat   *mat.Matrix
	inBuf  []float64
	hidBuf []float64
}

func (m *NCF) inputDim() int { return 2*m.cfg.EmbedDim + 2*m.fdim }

// TrainNCF fits the model on the observed entries of E (features may be
// nil). It returns a predictor for arbitrary member pairs.
func TrainNCF(E mat.View, mask *mat.Mask, features *mat.Matrix, cfg NCFConfig) *NCF {
	if cfg.EmbedDim < 1 {
		cfg.EmbedDim = 4
	}
	if cfg.HiddenDim < 1 {
		cfg.HiddenDim = 8
	}
	if cfg.LearnRate <= 0 {
		cfg.LearnRate = 0.01
	}
	n := mask.N()
	fdim := 0
	if features != nil {
		fdim = features.Cols
	}
	m := &NCF{cfg: cfg, n: n, fdim: fdim, feat: features}
	rng := rand.New(rand.NewSource(cfg.Seed))
	m.embed = mat.New(n, cfg.EmbedDim)
	for i := range m.embed.Data {
		m.embed.Data[i] = 0.1 * rng.NormFloat64()
	}
	in := m.inputDim()
	m.w1 = mat.New(cfg.HiddenDim, in)
	scale := 1 / math.Sqrt(float64(in))
	for i := range m.w1.Data {
		m.w1.Data[i] = scale * rng.NormFloat64()
	}
	m.b1 = make([]float64, cfg.HiddenDim)
	m.w2 = make([]float64, cfg.HiddenDim)
	for i := range m.w2 {
		m.w2[i] = scale * rng.NormFloat64()
	}
	m.w3 = make([]float64, cfg.EmbedDim)
	for i := range m.w3 {
		m.w3[i] = 0.5 * rng.NormFloat64()
	}
	m.inBuf = make([]float64, in)
	m.hidBuf = make([]float64, cfg.HiddenDim)

	// Collect training samples.
	type sample struct{ i, j int }
	var samples []sample
	mask.Entries(func(i, j int) {
		if i != j {
			samples = append(samples, sample{i, j})
		}
	})
	if len(samples) == 0 {
		return m
	}

	lr := cfg.LearnRate
	for ep := 0; ep < cfg.Epochs; ep++ {
		rng.Shuffle(len(samples), func(a, b int) { samples[a], samples[b] = samples[b], samples[a] })
		for _, s := range samples {
			m.sgdStep(s.i, s.j, E.At(s.i, s.j), lr)
			m.sgdStep(s.j, s.i, E.At(s.i, s.j), lr) // symmetry
		}
		lr *= 0.98
	}
	return m
}

// forward fills inBuf/hidBuf and returns the prediction for (i, j).
func (m *NCF) forward(i, j int) float64 {
	k := m.cfg.EmbedDim
	copy(m.inBuf[:k], m.embed.Row(i))
	copy(m.inBuf[k:2*k], m.embed.Row(j))
	if m.fdim > 0 {
		copy(m.inBuf[2*k:2*k+m.fdim], m.feat.Row(i))
		copy(m.inBuf[2*k+m.fdim:], m.feat.Row(j))
	}
	out := m.b2
	for d := 0; d < k; d++ {
		out += m.w3[d] * m.embed.At(i, d) * m.embed.At(j, d)
	}
	for h := 0; h < m.cfg.HiddenDim; h++ {
		z := m.b1[h]
		row := m.w1.Row(h)
		for d, v := range m.inBuf {
			z += row[d] * v
		}
		a := math.Tanh(z)
		m.hidBuf[h] = a
		out += m.w2[h] * a
	}
	return out
}

// sgdStep performs one gradient update on sample ((i, j), target).
func (m *NCF) sgdStep(i, j int, target, lr float64) {
	pred := m.forward(i, j)
	errGrad := 2 * (pred - target) // d(loss)/d(pred)
	k := m.cfg.EmbedDim
	l2 := m.cfg.L2

	// GMF path.
	ei, ej := m.embed.Row(i), m.embed.Row(j)
	for d := 0; d < k; d++ {
		gi := errGrad*m.w3[d]*ej[d] + l2*ei[d]
		gj := errGrad*m.w3[d]*ei[d] + l2*ej[d]
		gw3 := errGrad*ei[d]*ej[d] + l2*m.w3[d]
		ei[d] -= lr * gi
		ej[d] -= lr * gj
		m.w3[d] -= lr * gw3
	}

	// Output layer.
	for h := 0; h < m.cfg.HiddenDim; h++ {
		gw2 := errGrad*m.hidBuf[h] + l2*m.w2[h]
		// Hidden layer backprop: dL/dz_h = errGrad * w2[h] * (1 - a²).
		dz := errGrad * m.w2[h] * (1 - m.hidBuf[h]*m.hidBuf[h])
		m.w2[h] -= lr * gw2
		row := m.w1.Row(h)
		for d, v := range m.inBuf {
			// Input gradients for the embedding part.
			if d < 2*k {
				var emb []float64
				var dd int
				if d < k {
					emb = m.embed.Row(i)
					dd = d
				} else {
					emb = m.embed.Row(j)
					dd = d - k
				}
				emb[dd] -= lr * (dz*row[d] + l2*emb[dd])
			}
			row[d] -= lr * (dz*v + l2*row[d])
		}
		m.b1[h] -= lr * dz
	}
	m.b2 -= lr * errGrad
}

// Predict returns the model's rating for member rows (i, j), clipped to
// [-1, 1] and symmetrized.
func (m *NCF) Predict(i, j int) float64 {
	v := (m.forward(i, j) + m.forward(j, i)) / 2
	if v > 1 {
		return 1
	}
	if v < -1 {
		return -1
	}
	return v
}
