package tensor

import "fmt"

// Float32 entry points of the kernel set. All are destination-passing,
// allocation-free warm (packing scratch is pooled), split across the
// same shared worker pool as the f64 kernels, and bit-exact against a
// naive float32 triple loop — accumulation per output element is
// k-increasing with one addition per term.

func checkDst32(dst *Matrix32, rows, cols int, a, b *Matrix32, op string) {
	if dst.Rows != rows || dst.Cols != cols {
		panic(fmt.Sprintf("tensor: %s dst is %dx%d, want %dx%d", op, dst.Rows, dst.Cols, rows, cols))
	}
	if sharesData(dst.Data, a.Data) || (b != nil && sharesData(dst.Data, b.Data)) {
		panic(fmt.Sprintf("tensor: %s dst aliases an input", op))
	}
}

// MatMul32 returns a·b.
func MatMul32(a, b *Matrix32) *Matrix32 {
	out := New32(a.Rows, b.Cols)
	MatMulInto32(out, a, b)
	return out
}

// MatMulInto32 computes dst = a·b on the packed register-tiled kernel
// without allocating. dst must be a.Rows×b.Cols and must not alias a
// or b.
func MatMulInto32(dst, a, b *Matrix32) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMul32 inner dim mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	checkDst32(dst, a.Rows, b.Cols, a, b, "MatMulInto32")
	k, n := a.Cols, b.Cols
	matMul(dst.Data, a.Data, k, 1, b.Data, n, 1, a.Rows, k, n, &panelPool32)
}

// MatMulT32 returns a·bᵀ without materializing the transpose.
func MatMulT32(a, b *Matrix32) *Matrix32 {
	out := New32(a.Rows, b.Rows)
	MatMulTInto32(out, a, b)
	return out
}

// MatMulTInto32 computes dst = a·bᵀ without materializing the
// transpose: the packed kernel gathers each block of bᵀ into a
// contiguous panel. dst must be a.Rows×b.Rows
// and must not alias a or b.
func MatMulTInto32(dst, a, b *Matrix32) {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulT32 dim mismatch %dx%d · (%dx%d)ᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	checkDst32(dst, a.Rows, b.Rows, a, b, "MatMulTInto32")
	k, n := a.Cols, b.Rows
	matMul(dst.Data, a.Data, k, 1, b.Data, 1, k, a.Rows, k, n, &panelPool32)
}

// TMatMul32 returns aᵀ·b without materializing the transpose.
func TMatMul32(a, b *Matrix32) *Matrix32 {
	out := New32(a.Cols, b.Cols)
	TMatMulInto32(out, a, b)
	return out
}

// TMatMulInto32 computes dst = aᵀ·b on the packed kernel, which walks
// a column-major through its strides, so no transpose is materialized.
// dst must be a.Cols×b.Cols and must not alias a or b.
func TMatMulInto32(dst, a, b *Matrix32) {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: TMatMul32 dim mismatch (%dx%d)ᵀ · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	checkDst32(dst, a.Cols, b.Cols, a, b, "TMatMulInto32")
	k, n := a.Rows, b.Cols
	matMul(dst.Data, a.Data, 1, a.Cols, b.Data, n, 1, a.Cols, k, n, &panelPool32)
}

// Transpose32 returns a new matrix that is mᵀ.
func (m *Matrix32) Transpose() *Matrix32 {
	out := New32(m.Cols, m.Rows)
	TransposeInto32(out, m)
	return out
}

// TransposeInto32 computes dst = mᵀ in square cache tiles without
// allocating. dst must be m.Cols×m.Rows and must not alias m.
func TransposeInto32(dst, m *Matrix32) {
	checkDst32(dst, m.Cols, m.Rows, m, nil, "TransposeInto32")
	if serialRows(m.Cols, m.Rows*m.Cols) {
		transposeRange(dst.Data, m.Data, m.Rows, m.Cols, 0, m.Cols)
		return
	}
	parallelRows(m.Cols, m.Rows*m.Cols, func(lo, hi int) {
		transposeRange(dst.Data, m.Data, m.Rows, m.Cols, lo, hi)
	})
}
