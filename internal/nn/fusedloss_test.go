package nn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"candle/internal/tensor"
)

func TestSoftmaxCrossEntropyMatchesUnfused(t *testing.T) {
	rng := rand.New(rand.NewSource(70))
	logits := tensor.RandNormal(rng, 6, 4, 2)
	target := tensor.New(6, 4)
	for i := 0; i < 6; i++ {
		target.Set(i, rng.Intn(4), 1)
	}
	// Unfused: softmax layer then CCE on probabilities.
	sm := NewSoftmax()
	if _, err := sm.Build(rng, 4); err != nil {
		t.Fatal(err)
	}
	probs := sm.Forward(logits, false)
	unfusedLoss, g := CategoricalCrossEntropy{}.Compute(probs, target)
	unfusedGrad := sm.Backward(g)

	fusedLoss, fusedGrad := SoftmaxCrossEntropy{}.Compute(logits, target)
	if math.Abs(fusedLoss-unfusedLoss) > 1e-9 {
		t.Fatalf("loss: fused %v vs unfused %v", fusedLoss, unfusedLoss)
	}
	if !fusedGrad.AlmostEqual(unfusedGrad, 1e-9) {
		t.Fatal("gradients disagree")
	}
}

func TestSoftmaxCrossEntropyStableForHugeLogits(t *testing.T) {
	logits := tensor.FromSlice(1, 3, []float64{1e4, 1e4 - 1, -1e4})
	target := tensor.FromSlice(1, 3, []float64{1, 0, 0})
	loss, grad := SoftmaxCrossEntropy{}.Compute(logits, target)
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		t.Fatalf("loss = %v", loss)
	}
	for _, v := range grad.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("grad = %v", grad.Data)
		}
	}
	// The unfused path overflows/degenerates here; the fused one gives
	// the right loss ≈ log(1+e^{-1}) ≈ 0.3133.
	if math.Abs(loss-math.Log(1+math.Exp(-1))) > 1e-6 {
		t.Fatalf("loss = %v", loss)
	}
}

func TestGradCheckFusedLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	m := buildModel(t, 5, SoftmaxCrossEntropy{}, NewSGD(0.1),
		NewDense(4), NewActivation("tanh"), NewDense(3))
	x := tensor.RandNormal(rng, 4, 5, 1)
	y := tensor.New(4, 3)
	for i := 0; i < 4; i++ {
		y.Set(i, rng.Intn(3), 1)
	}
	checkGradients(t, m, SoftmaxCrossEntropy{}, x, y, 1e-5)
}

func TestFusedLossTrains(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	n := 120
	x := tensor.New(n, 2)
	y := tensor.New(n, 2)
	for i := 0; i < n; i++ {
		cls := i % 2
		x.Set(i, 0, float64(cls*4-2)+rng.NormFloat64()*0.5)
		x.Set(i, 1, rng.NormFloat64()*0.5)
		y.Set(i, cls, 1)
	}
	// Note: no softmax layer — the loss takes logits.
	m := buildModel(t, 2, SoftmaxCrossEntropy{}, NewSGD(0.1),
		NewDense(8), NewReLU(), NewDense(2))
	hist, err := m.Fit(x, y, FitConfig{Epochs: 25, BatchSize: 20, Shuffle: true})
	if err != nil {
		t.Fatal(err)
	}
	// Accuracy over argmax of logits == argmax of probabilities.
	if acc := hist.Acc; acc < 0.95 {
		t.Fatalf("fused-loss accuracy %v", acc)
	}
}

// Property: fused and unfused losses agree on random logits.
func TestQuickFusedMatchesUnfused(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := 1 + rng.Intn(5)
		cols := 2 + rng.Intn(5)
		logits := tensor.RandNormal(rng, rows, cols, 3)
		target := tensor.New(rows, cols)
		for i := 0; i < rows; i++ {
			target.Set(i, rng.Intn(cols), 1)
		}
		sm := NewSoftmax()
		if _, err := sm.Build(rng, cols); err != nil {
			return false
		}
		unfused, _ := CategoricalCrossEntropy{}.Compute(sm.Forward(logits, false), target)
		fused, _ := SoftmaxCrossEntropy{}.Compute(logits, target)
		return math.Abs(fused-unfused) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
