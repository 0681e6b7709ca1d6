package tensor

import (
	"math/rand"
	"testing"
)

// Naive serial float32 references: the semantics the packed f32
// kernels must reproduce bitwise, mirroring the f64 contract in
// kernels_test.go. Accumulation is float32 throughout (not a widened
// f64 accumulator), matching the kernels' per-element k-order.

func naiveMatMul32(a, b *Matrix32) *Matrix32 {
	out := New32(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float32
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

func naiveMatMulT32(a, b *Matrix32) *Matrix32 {
	out := New32(a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Rows; j++ {
			var s float32
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(j, k)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

func naiveTMatMul32(a, b *Matrix32) *Matrix32 {
	out := New32(a.Cols, b.Cols)
	for i := 0; i < a.Cols; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float32
			for k := 0; k < a.Rows; k++ {
				s += a.At(k, i) * b.At(k, j)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

// hostAVX snapshots the detected capability before any test mutates
// useAVX.
var hostAVX = useAVX

func mustEqual32(t *testing.T, op string, got, want *Matrix32) {
	t.Helper()
	if !got.Equal(want) {
		t.Fatalf("%s disagrees with naive float32 reference (%dx%d)", op, want.Rows, want.Cols)
	}
}

// TestKernels32ExactAgainstNaive drives the packed register-tiled f32
// kernels over the same adversarial tiling edges as the f64 suite,
// plus shapes straddling the packMR strip and pack block boundaries.
func TestKernels32ExactAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	shapes := append([]struct{ m, k, n int }{}, adversarialShapes...)
	shapes = append(shapes, []struct{ m, k, n int }{
		{4, 4, 8},     // exactly one micro strip
		{5, 9, 9},     // ragged strip (mr=1 tail)
		{6, 260, 515}, // k and j past one pack block
		{7, 513, 7},   // k past two pack blocks, narrow n
	}...)
	for _, s := range shapes {
		a := RandNormal32(rng, s.m, s.k, 1)
		b := RandNormal32(rng, s.k, s.n, 1)
		mustEqual32(t, "MatMul32", MatMul32(a, b), naiveMatMul32(a, b))

		bt := RandNormal32(rng, s.n, s.k, 1)
		mustEqual32(t, "MatMulT32", MatMulT32(a, bt), naiveMatMulT32(a, bt))

		at := RandNormal32(rng, s.k, s.m, 1)
		c := RandNormal32(rng, s.k, s.n, 1)
		mustEqual32(t, "TMatMul32", TMatMul32(at, c), naiveTMatMul32(at, c))

		// Transpose round-trips through the tiled kernel.
		tr := a.Transpose()
		for i := 0; i < a.Rows; i++ {
			for j := 0; j < a.Cols; j++ {
				if tr.At(j, i) != a.At(i, j) {
					t.Fatalf("Transpose32(%d,%d) wrong", i, j)
				}
			}
		}
	}
}

// TestKernels32AVXMatchesGeneric pins the vectorized micro-kernel
// against the portable generic one bitwise, across tile-edge shapes
// (full 16-wide chunks, ragged tails, ragged strips). On hosts without
// AVX both runs take the generic path and the test is vacuous.
func TestKernels32AVXMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	defer func(v bool) { useAVX = v }(useAVX)
	for _, s := range []struct{ m, k, n int }{
		{4, 8, 16},
		{8, 300, 512},
		{9, 37, 23},  // mr tail, j tail
		{12, 5, 100}, // j tail only
		{100, 260, 515},
	} {
		a := RandNormal32(rng, s.m, s.k, 1)
		b := RandNormal32(rng, s.k, s.n, 1)
		bt := RandNormal32(rng, s.n, s.k, 1)
		at := RandNormal32(rng, s.k, s.m, 1)
		c := RandNormal32(rng, s.k, s.n, 1)

		useAVX = hostAVX
		vec, vecT, vecTM := MatMul32(a, b), MatMulT32(a, bt), TMatMul32(at, c)
		useAVX = false
		gen, genT, genTM := MatMul32(a, b), MatMulT32(a, bt), TMatMul32(at, c)

		mustEqual32(t, "MatMul32 avx vs generic", vec, gen)
		mustEqual32(t, "MatMulT32 avx vs generic", vecT, genT)
		mustEqual32(t, "TMatMul32 avx vs generic", vecTM, genTM)
	}
}

// TestKernels32OverwriteDirtyDst proves the Into kernels fully
// overwrite reused arena buffers carrying stale values.
func TestKernels32OverwriteDirtyDst(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	a := RandNormal32(rng, 9, 17, 1)
	b := RandNormal32(rng, 17, 11, 1)
	dst := New32(9, 11)
	dst.Fill(1e30)
	MatMulInto32(dst, a, b)
	mustEqual32(t, "MatMulInto32 dirty dst", dst, naiveMatMul32(a, b))

	dstTM := New32(17, 11)
	dstTM.Fill(3.5)
	c := RandNormal32(rng, 9, 11, 1)
	TMatMulInto32(dstTM, a, c)
	mustEqual32(t, "TMatMulInto32 dirty dst", dstTM, naiveTMatMul32(a, c))

	dstT := New32(9, 21)
	dstT.Fill(-7)
	bt := RandNormal32(rng, 21, 17, 1)
	MatMulTInto32(dstT, a, bt)
	mustEqual32(t, "MatMulTInto32 dirty dst", dstT, naiveMatMulT32(a, bt))
}

// TestKernels32RejectAliasedDst mirrors the f64 aliasing contract.
func TestKernels32RejectAliasedDst(t *testing.T) {
	a := New32(8, 8)
	b := New32(8, 8)
	expectPanic(t, "dst==a 32", func() { MatMulInto32(a, a, b) })
	expectPanic(t, "dst==b 32", func() { MatMulInto32(b, a, b) })
	expectPanic(t, "dst==a TMatMul32", func() { TMatMulInto32(a, a, b) })
	expectPanic(t, "dst==a MatMulT32", func() { MatMulTInto32(a, a, b) })
	expectPanic(t, "dst==m Transpose32", func() { TransposeInto32(a, a) })
	expectPanic(t, "wrong dst shape 32", func() { MatMulInto32(New32(4, 4), New32(4, 6), New32(6, 5)) })
}

// TestTMatMulPackedPathExact pins f64 TMatMul at wide outputs and deep
// k (several column and k blocks, packed A strips) against the naive
// reference.
func TestTMatMulPackedPathExact(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, s := range []struct{ rows, i, n int }{
		{16, 100, 64},   // exactly at the width threshold
		{33, 301, 130},  // ragged everywhere
		{8, 512, 520},   // k at threshold, j past one pack block
		{300, 70, 1030}, // deep k, wide n: two j blocks, two k blocks
	} {
		a := RandNormal(rng, s.rows, s.i, 1)
		b := RandNormal(rng, s.rows, s.n, 1)
		mustEqual(t, "TMatMul packed", TMatMul(a, b), naiveTMatMul(a, b))
	}
}

// TestArena32ReusesBuffers: warmed Get32/Put32 must not allocate and
// must return zeroed matrices.
func TestArena32ReusesBuffers(t *testing.T) {
	m := Get32(7, 13)
	for _, v := range m.Data {
		if v != 0 {
			t.Fatal("Get32 returned non-zero matrix")
		}
	}
	m.Fill(3)
	Put32(m)
	n := Get32(9, 11)
	for _, v := range n.Data {
		if v != 0 {
			t.Fatal("recycled matrix not zeroed")
		}
	}
	Put32(n)
	allocs := testing.AllocsPerRun(100, func() {
		s := Get32(7, 13)
		Put32(s)
	})
	if allocs > 0 {
		t.Fatalf("warmed Get32/Put32 allocates %.1f times per run", allocs)
	}
	Put32(nil)
	Put32(Get32(0, 5))
}

// TestKernels32WarmAllocFree: a warmed packed matmul must not allocate
// (the packing scratch is pooled).
func TestKernels32WarmAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	a := RandNormal32(rng, 64, 300, 1)
	b := RandNormal32(rng, 300, 80, 1)
	dst := New32(64, 80)
	MatMulInto32(dst, a, b) // warm pools
	allocs := testing.AllocsPerRun(20, func() { MatMulInto32(dst, a, b) })
	if allocs > 0 {
		t.Fatalf("warmed MatMulInto32 allocates %.1f times per run", allocs)
	}
}

// TestDemotePromote round-trips conversions and checks panics on
// shape mismatches.
func TestDemotePromote(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	src := RandNormal(rng, 5, 7, 1)
	d := New32(5, 7)
	DemoteInto(d, src)
	back := New(5, 7)
	PromoteInto(back, d)
	for i, v := range src.Data {
		if float32(v) != d.Data[i] {
			t.Fatalf("DemoteInto[%d] = %v, want %v", i, d.Data[i], float32(v))
		}
		if back.Data[i] != float64(d.Data[i]) {
			t.Fatalf("PromoteInto[%d] = %v, want %v", i, back.Data[i], float64(d.Data[i]))
		}
	}
	expectPanic(t, "DemoteInto shape", func() { DemoteInto(New32(2, 2), src) })
	expectPanic(t, "PromoteInto shape", func() { PromoteInto(New(2, 2), d) })
	expectPanic(t, "DemoteSlice len", func() { DemoteSlice(make([]float32, 3), make([]float64, 4)) })
	expectPanic(t, "PromoteSlice len", func() { PromoteSlice(make([]float64, 3), make([]float32, 4)) })
}

// TestParseDType covers the flag surface.
func TestParseDType(t *testing.T) {
	for s, want := range map[string]DType{"": F64, "f64": F64, "float64": F64, "f32": F32, "float32": F32} {
		got, err := ParseDType(s)
		if err != nil || got != want {
			t.Fatalf("ParseDType(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseDType("f16"); err == nil {
		t.Fatal("ParseDType(f16) should fail")
	}
	if F32.String() != "f32" || F64.String() != "f64" {
		t.Fatal("DType.String wrong")
	}
	if F32.Bytes() != 4 || F64.Bytes() != 8 {
		t.Fatal("DType.Bytes wrong")
	}
}
