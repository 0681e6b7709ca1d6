package tensor

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// Naive serial references. These are the semantics every blocked,
// unrolled, pooled kernel must reproduce exactly (bitwise, on finite
// inputs), because the optimized kernels accumulate each output
// element in the same k-increasing order.

func naiveMatMul(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			s := 0.0
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

func naiveMatMulT(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Rows; j++ {
			s := 0.0
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(j, k)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

func naiveTMatMul(a, b *Matrix) *Matrix {
	out := New(a.Cols, b.Cols)
	for i := 0; i < a.Cols; i++ {
		for j := 0; j < b.Cols; j++ {
			s := 0.0
			for k := 0; k < a.Rows; k++ {
				s += a.At(k, i) * b.At(k, j)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

func naiveTranspose(m *Matrix) *Matrix {
	out := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Set(j, i, m.At(i, j))
		}
	}
	return out
}

// mustEqual fails unless got and want agree bitwise.
func mustEqual(t *testing.T, op string, got, want *Matrix) {
	t.Helper()
	if !got.Equal(want) {
		t.Fatalf("%s disagrees with naive reference (%dx%d)", op, want.Rows, want.Cols)
	}
}

// adversarialShapes stresses tiling edges: vectors, degenerate dims,
// sizes straddling the k/j tile boundaries and the unroll width.
var adversarialShapes = []struct{ m, k, n int }{
	{1, 1, 1},
	{1, 7, 1},     // 1×N · N×1
	{1, 300, 520}, // single row across both tile boundaries
	{300, 1, 5},   // inner dim 1: no unrolled iterations at all
	{5, 4, 4},
	{3, 5, 7}, // nothing divides the unroll width
	{2, 255, 513},
	{2, 256, 512}, // exactly the tile sizes
	{2, 257, 515},
	{0, 4, 3}, // zero rows
	{4, 0, 3}, // empty inner dim: result must be all zeros
	{3, 4, 0}, // zero cols
	{33, 129, 65},
}

func TestMatMulKernelsExactAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, s := range adversarialShapes {
		a := RandNormal(rng, s.m, s.k, 1)
		b := RandNormal(rng, s.k, s.n, 1)
		mustEqual(t, "MatMul", MatMul(a, b), naiveMatMul(a, b))

		bt := RandNormal(rng, s.n, s.k, 1)
		mustEqual(t, "MatMulT", MatMulT(a, bt), naiveMatMulT(a, bt))

		at := RandNormal(rng, s.k, s.m, 1)
		c := RandNormal(rng, s.k, s.n, 1)
		mustEqual(t, "TMatMul", TMatMul(at, c), naiveTMatMul(at, c))

		mustEqual(t, "Transpose", a.Transpose(), naiveTranspose(a))
	}
}

// TestKernelsExactWithZeroRows: whole zero rows, zero columns, and
// ReLU-style half-sparse inputs must not change results relative to
// the naive reference.
func TestKernelsExactWithZeroRows(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a := RandNormal(rng, 37, 301, 1)
	for i := range a.Data {
		if i%2 == 0 {
			a.Data[i] = 0 // ReLU-like sparsity
		}
	}
	for j := 0; j < a.Cols; j++ {
		a.Set(5, j, 0) // an entirely zero row
	}
	b := RandNormal(rng, 301, 43, 1)
	mustEqual(t, "MatMul/sparse", MatMul(a, b), naiveMatMul(a, b))
	mustEqual(t, "TMatMul/sparse", TMatMul(a.Transpose(), b), naiveTMatMul(a.Transpose(), b))
	bt := RandNormal(rng, 50, 301, 1)
	mustEqual(t, "MatMulT/sparse", MatMulT(a, bt), naiveMatMulT(a, bt))
}

// TestKernelsExactAVXAndGeneric pins all three orientations of the f64
// packed kernel against the naive triple loop with the AVX tile on and
// forced off, at the NT3 layer shapes (16 filters; k = 16, 20, 160),
// widths that are not a multiple of the 8-column tile, row counts that
// are not a multiple of the 4-row strip, k = 1, and the zero-padded
// patch matrices of a "same" Conv1D. On hosts without AVX both passes
// take the generic tile.
func TestKernelsExactAVXAndGeneric(t *testing.T) {
	defer func(v bool) { useAVX = v }(useAVX)
	shapes := []struct{ m, k, n int }{
		{384, 20, 16},  // NT3 conv1 forward: patches · w
		{375, 160, 16}, // NT3 conv2 forward
		{384, 16, 20},  // NT3 conv1 patch gradient: dflat · wᵀ
		{375, 16, 160}, // NT3 conv2 patch gradient
		{20, 384, 16},  // NT3 conv1 weight gradient: patchesᵀ · dflat
		{7, 13, 11},    // ragged rows, ragged width
		{9, 33, 30},    // one full tile chunk, a half chunk, a scalar tail
		{6, 5, 12},
		{13, 1, 21}, // k = 1
		{8, 1, 8},
		{3, 1, 4},      // fewer rows than one strip
		{5, 300, 1030}, // wide output: packed B and A panels
	}
	for _, avx := range []bool{hostAVX, false} {
		useAVX = avx
		rng := rand.New(rand.NewSource(14))
		for _, s := range shapes {
			a := RandNormal(rng, s.m, s.k, 1)
			b := RandNormal(rng, s.k, s.n, 1)
			mustEqual(t, "MatMul", MatMul(a, b), naiveMatMul(a, b))
			bt := RandNormal(rng, s.n, s.k, 1)
			mustEqual(t, "MatMulT", MatMulT(a, bt), naiveMatMulT(a, bt))
			at := RandNormal(rng, s.k, s.m, 1)
			mustEqual(t, "TMatMul", TMatMul(at, b), naiveTMatMul(at, b))
		}
		// A "same" Conv1D over a 2×23-step, 3-channel signal with a
		// 6-wide kernel: the padded windows leave zero runs in the
		// patch matrix, which all three products of a layer step see.
		const batch, steps, inCh, kernel, filters = 2, 23, 3, 6, 16
		patches := samePatches(RandNormal(rng, batch, steps*inCh, 1), steps, inCh, kernel)
		w := RandNormal(rng, kernel*inCh, filters, 1)
		dflat := RandNormal(rng, batch*steps, filters, 1)
		mustEqual(t, "conv forward", MatMul(patches, w), naiveMatMul(patches, w))
		mustEqual(t, "conv weight grad", TMatMul(patches, dflat), naiveTMatMul(patches, dflat))
		mustEqual(t, "conv patch grad", MatMulT(dflat, w), naiveMatMulT(dflat, w))
	}
}

// samePatches is the im2col matrix of a stride-1 "same" Conv1D: one
// row per (sample, output step), kernel·inCh wide, zero where the
// window hangs over either end of the signal.
func samePatches(x *Matrix, steps, inCh, kernel int) *Matrix {
	padLeft := (kernel - 1) / 2
	p := New(x.Rows*steps, kernel*inCh)
	for r := 0; r < x.Rows; r++ {
		for s := 0; s < steps; s++ {
			prow := p.Row(r*steps + s)
			for kk := 0; kk < kernel; kk++ {
				if step := s - padLeft + kk; step >= 0 && step < steps {
					copy(prow[kk*inCh:(kk+1)*inCh], x.Row(r)[step*inCh:(step+1)*inCh])
				}
			}
		}
	}
	return p
}

// TestIntoKernelsOverwriteDst proves Into kernels fully overwrite a
// dirty destination (reused arena buffers carry stale values).
func TestIntoKernelsOverwriteDst(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := RandNormal(rng, 9, 17, 1)
	b := RandNormal(rng, 17, 11, 1)
	dst := New(9, 11)
	dst.Fill(1e30)
	MatMulInto(dst, a, b)
	mustEqual(t, "MatMulInto dirty dst", dst, naiveMatMul(a, b))

	dstT := New(9, 21)
	dstT.Fill(-7)
	bt := RandNormal(rng, 21, 17, 1)
	MatMulTInto(dstT, a, bt)
	mustEqual(t, "MatMulTInto dirty dst", dstT, naiveMatMulT(a, bt))

	dstTM := New(17, 11)
	dstTM.Fill(3.5)
	c := RandNormal(rng, 9, 11, 1)
	TMatMulInto(dstTM, a, c)
	mustEqual(t, "TMatMulInto dirty dst", dstTM, naiveTMatMul(a, c))

	dstTr := New(17, 9)
	dstTr.Fill(42)
	TransposeInto(dstTr, a)
	mustEqual(t, "TransposeInto dirty dst", dstTr, naiveTranspose(a))
}

// TestSharedInputsAllowed: the same matrix may appear on both input
// sides (Gram matrices, AᵀA), only dst must be distinct.
func TestSharedInputsAllowed(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	a := RandNormal(rng, 23, 23, 1)
	mustEqual(t, "MatMul(a,a)", MatMul(a, a), naiveMatMul(a, a))
	mustEqual(t, "MatMulT(a,a)", MatMulT(a, a), naiveMatMulT(a, a))
	mustEqual(t, "TMatMul(a,a)", TMatMul(a, a), naiveTMatMul(a, a))
}

func expectPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic", what)
		}
	}()
	f()
}

// TestIntoKernelsRejectAliasedDst: writing the output over an input
// would corrupt the accumulation, so it must panic — including for
// partially overlapping RowSlice views.
func TestIntoKernelsRejectAliasedDst(t *testing.T) {
	a := New(8, 8)
	b := New(8, 8)
	expectPanic(t, "dst==a", func() { MatMulInto(a, a, b) })
	expectPanic(t, "dst==b", func() { MatMulInto(b, a, b) })
	expectPanic(t, "dst==a MatMulT", func() { MatMulTInto(a, a, b) })
	expectPanic(t, "dst==a TMatMul", func() { TMatMulInto(a, a, b) })
	expectPanic(t, "dst==m Transpose", func() { TransposeInto(a, a) })
	// Partial overlap through a view.
	big := New(16, 8)
	top, bottom := big.RowSlice(0, 8), big.RowSlice(4, 12)
	expectPanic(t, "overlapping views", func() { MatMulInto(top, bottom, b) })
}

func TestIntoKernelsRejectWrongDstShape(t *testing.T) {
	a, b := New(4, 6), New(6, 5)
	expectPanic(t, "wrong dst shape", func() { MatMulInto(New(4, 4), a, b) })
	expectPanic(t, "wrong dst shape T", func() { MatMulTInto(New(4, 4), a, New(7, 6)) })
	expectPanic(t, "wrong dst shape TM", func() { TMatMulInto(New(4, 4), a, New(4, 5)) })
	expectPanic(t, "wrong dst shape Tr", func() { TransposeInto(New(4, 6), a) })
}

func TestColSumsIntoAndAccum(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	m := RandNormal(rng, 211, 97, 1) // large enough to cross parallelThreshold
	want := make([]float64, m.Cols)
	for i := 0; i < m.Rows; i++ {
		for j, v := range m.Row(i) {
			want[j] += v
		}
	}
	got := m.ColSums()
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("ColSums[%d] = %v, want %v", j, got[j], want[j])
		}
	}
	// AccumColSums adds onto the existing values in row order, so the
	// reference must accumulate from the same starting point.
	acc := make([]float64, m.Cols)
	wantAcc := make([]float64, m.Cols)
	for j := range acc {
		acc[j], wantAcc[j] = 1, 1
	}
	for i := 0; i < m.Rows; i++ {
		for j, v := range m.Row(i) {
			wantAcc[j] += v
		}
	}
	m.AccumColSums(acc)
	for j := range wantAcc {
		if acc[j] != wantAcc[j] {
			t.Fatalf("AccumColSums[%d] = %v, want %v", j, acc[j], wantAcc[j])
		}
	}
	expectPanic(t, "ColSumsInto length", func() { m.ColSumsInto(make([]float64, 3)) })
	expectPanic(t, "AccumColSums length", func() { m.AccumColSums(make([]float64, 3)) })
}

func TestAddRowVectorParallelPath(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	m := RandNormal(rng, 300, 300, 1) // crosses parallelThreshold
	orig := m.Clone()
	v := make([]float64, 300)
	for j := range v {
		v[j] = float64(j)
	}
	m.AddRowVector(v)
	for i := 0; i < m.Rows; i++ {
		for j := range v {
			if m.At(i, j) != orig.At(i, j)+v[j] {
				t.Fatalf("AddRowVector(%d,%d) wrong", i, j)
			}
		}
	}
}

// TestArenaReusesBuffers: a warmed Get/Put cycle must not allocate,
// must return zeroed matrices, and must tolerate odd shapes.
func TestArenaReusesBuffers(t *testing.T) {
	m := Get(7, 13)
	for _, v := range m.Data {
		if v != 0 {
			t.Fatal("Get returned non-zero matrix")
		}
	}
	m.Fill(3)
	Put(m)
	n := Get(9, 11) // 99 ≤ 128: same size class as 91
	if n.Rows != 9 || n.Cols != 11 || len(n.Data) != 99 {
		t.Fatalf("Get(9,11) = %dx%d len %d", n.Rows, n.Cols, len(n.Data))
	}
	for _, v := range n.Data {
		if v != 0 {
			t.Fatal("recycled matrix not zeroed")
		}
	}
	Put(n)
	allocs := testing.AllocsPerRun(100, func() {
		s := Get(7, 13)
		Put(s)
	})
	if allocs > 0 {
		t.Fatalf("warmed Get/Put allocates %.1f times per run", allocs)
	}
	// Safe no-ops.
	Put(nil)
	Put(Get(0, 5))
	e := Get(0, 0)
	if e.Rows != 0 || len(e.Data) != 0 {
		t.Fatal("empty Get wrong")
	}
}

func TestSetWorkersBudget(t *testing.T) {
	prev := Workers()
	defer SetWorkers(prev)
	if got := SetWorkers(3); got != prev {
		t.Fatalf("SetWorkers returned %d, want previous %d", got, prev)
	}
	if Workers() != 3 {
		t.Fatalf("Workers() = %d, want 3", Workers())
	}
	SetWorkers(0) // clamps to 1: fully serial kernels
	if Workers() != 1 {
		t.Fatalf("Workers() = %d, want 1", Workers())
	}
	rng := rand.New(rand.NewSource(17))
	a := RandNormal(rng, 120, 90, 1)
	b := RandNormal(rng, 90, 80, 1)
	mustEqual(t, "serial-budget MatMul", MatMul(a, b), naiveMatMul(a, b))
}

// TestPoolPersistentWorkersBounded: repeated large kernels must reuse
// the persistent workers, not grow the goroutine count, and R
// concurrent callers must share one budget.
func TestPoolPersistentWorkersBounded(t *testing.T) {
	prev := Workers()
	defer SetWorkers(prev)
	SetWorkers(4)
	rng := rand.New(rand.NewSource(18))
	a := RandNormal(rng, 200, 200, 1)
	b := RandNormal(rng, 200, 200, 1)
	MatMul(a, b) // warm the pool
	base := runtime.NumGoroutine()
	want := naiveMatMul(a, b)

	const callers = 8
	var wg sync.WaitGroup
	var peakG atomic.Int64
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				if g := int64(runtime.NumGoroutine()); g > peakG.Load() {
					peakG.Store(g)
				}
			}
		}
	}()
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 5; iter++ {
				out := Get(a.Rows, b.Cols)
				MatMulInto(out, a, b)
				if !out.Equal(want) {
					t.Error("concurrent MatMul wrong")
				}
				Put(out)
			}
		}()
	}
	wg.Wait()
	close(done)
	// callers + monitor goroutines on top of base; the pool itself must
	// add nothing beyond its persistent workers (already in base).
	if peak, limit := int(peakG.Load()), base+callers+2; peak > limit {
		t.Fatalf("goroutines peaked at %d, want ≤ %d (pool spawning per call?)", peak, limit)
	}
}

// TestQuickKernelsExact cross-checks random shapes (including ones far
// from any tile multiple) against the naive kernels.
func TestQuickKernelsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for iter := 0; iter < 25; iter++ {
		m := 1 + rng.Intn(60)
		k := 1 + rng.Intn(300)
		n := 1 + rng.Intn(60)
		a := RandNormal(rng, m, k, 1)
		b := RandNormal(rng, k, n, 1)
		mustEqual(t, "quick MatMul", MatMul(a, b), naiveMatMul(a, b))
		bt := RandNormal(rng, n, k, 1)
		mustEqual(t, "quick MatMulT", MatMulT(a, bt), naiveMatMulT(a, bt))
		c := RandNormal(rng, m, n, 1)
		mustEqual(t, "quick TMatMul", TMatMul(a, c), naiveTMatMul(a, c))
	}
}
