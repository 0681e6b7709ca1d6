package nn

import (
	"math/rand"
	"testing"

	"candle/internal/tensor"
)

// TestDenseStepAllocationFree proves the allocation-free steady state
// the kernel layer is built for: once a Dense layer has run a
// forward+backward at a given batch size (warming its reusable
// buffers and the arena's size classes), further steps at that batch
// size stay at or under 2 allocations.
func TestDenseStepAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d := NewDense(64)
	if _, err := d.Build(rng, 128); err != nil {
		t.Fatal(err)
	}
	x := tensor.RandNormal(rng, 32, 128, 1)
	dout := tensor.RandNormal(rng, 32, 64, 1)
	step := func() {
		d.Forward(x, true)
		d.Backward(dout)
	}
	// Warm the layer buffers and the arena size classes.
	for i := 0; i < 3; i++ {
		step()
	}
	if allocs := testing.AllocsPerRun(20, step); allocs > 2 {
		t.Fatalf("warmed Dense forward+backward did %v allocations, want <= 2", allocs)
	}
}

// TestConvStepAllocationsBounded extends the same guard to the Conv1D
// path NT3 trains: im2col patches, matmul, bias, and the backward
// scatter must all reuse their buffers.
func TestConvStepAllocationsBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	c := NewConv1DStrided(8, 5, 4, 1, true)
	if _, err := c.Build(rng, 32*4); err != nil {
		t.Fatal(err)
	}
	x := tensor.RandNormal(rng, 16, 32*4, 1)
	out := c.Forward(x, true)
	dout := tensor.RandNormal(rng, out.Rows, out.Cols, 1)
	step := func() {
		c.Forward(x, true)
		c.Backward(dout)
	}
	for i := 0; i < 3; i++ {
		step()
	}
	if allocs := testing.AllocsPerRun(20, step); allocs > 2 {
		t.Fatalf("warmed Conv1D forward+backward did %v allocations, want <= 2", allocs)
	}
}

// BenchmarkDenseStep measures one forward+backward through a Dense
// layer at the two shapes that dominate the paper's Pilot1 runs: the
// NT3 dense head (batch 20, 1064→128 after the conv stack) and the
// P1B1 encoder (batch 100, 4096-feature slice into a 1024 hidden
// layer).
func BenchmarkDenseStep(b *testing.B) {
	for _, s := range []struct {
		name             string
		batch, in, units int
	}{
		{"NT3dense_20x1064x128", 20, 1064, 128},
		{"P1B1enc_100x4096x1024", 100, 4096, 1024},
	} {
		b.Run(s.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(9))
			d := NewDense(s.units)
			if _, err := d.Build(rng, s.in); err != nil {
				b.Fatal(err)
			}
			x := tensor.RandNormal(rng, s.batch, s.in, 1)
			dout := tensor.RandNormal(rng, s.batch, s.units, 1)
			d.Forward(x, true)
			d.Backward(dout)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.Forward(x, true)
				d.Backward(dout)
			}
		})
	}
}

// BenchmarkConvStep measures one f64 forward+backward through each of
// the two NT3 Conv1D layers at the train-step shape: batch 20 of the
// 403-feature signal, conv1 (16 filters, kernel 20, 1 channel: 384
// output steps, k = 20) and conv2 on its 384×16 output (16 filters,
// kernel 10: 375 output steps, k = 160).
func BenchmarkConvStep(b *testing.B) {
	for _, s := range []struct {
		name                string
		steps, inCh, kernel int
	}{
		{"NT3conv1_20x403_k20", 403, 1, 20},
		{"NT3conv2_20x384x16_k10", 384, 16, 10},
	} {
		b.Run(s.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(10))
			c := NewConv1D(16, s.kernel, s.inCh)
			if _, err := c.Build(rng, s.steps*s.inCh); err != nil {
				b.Fatal(err)
			}
			x := tensor.RandNormal(rng, 20, s.steps*s.inCh, 1)
			out := c.Forward(x, true)
			dout := tensor.RandNormal(rng, out.Rows, out.Cols, 1)
			c.Backward(dout)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Forward(x, true)
				c.Backward(dout)
			}
		})
	}
}

// BenchmarkDenseStep32 is the float32 column of BenchmarkDenseStep:
// the same two Pilot1 shapes through the fused Dense+bias+relu f32
// pass (packed kernels, f64 master weights, promoted gradients).
func BenchmarkDenseStep32(b *testing.B) {
	for _, s := range []struct {
		name             string
		batch, in, units int
	}{
		{"NT3dense_20x1064x128", 20, 1064, 128},
		{"P1B1enc_100x4096x1024", 100, 4096, 1024},
	} {
		b.Run(s.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(9))
			d := NewDense(s.units)
			d.setDType(tensor.F32)
			d.fuse = "relu"
			if _, err := d.Build(rng, s.in); err != nil {
				b.Fatal(err)
			}
			x := tensor.RandNormal(rng, s.batch, s.in, 1)
			dout := tensor.RandNormal(rng, s.batch, s.units, 1)
			d.Forward(x, true)
			d.Backward(dout)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.Forward(x, true)
				d.Backward(dout)
			}
		})
	}
}
