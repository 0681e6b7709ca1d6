package tensor

import (
	"fmt"
	"unsafe"
)

// This file holds the float64 matmul and transpose entry points. Each
// comes in a destination-passing Into form that writes a caller-owned
// matrix (so steady-state training steps allocate nothing) plus the
// original allocating form, now a thin wrapper. All three products run
// on the packed register-tiled core in pack.go (shared with the float32
// kernels), which splits row ranges across the shared worker pool.
//
// Accumulation order per output element is k-increasing with one
// addition per term, identical to a naive triple loop, so results are
// bit-exact against a serial reference on finite inputs.

// transposeBlock is the square tile edge for blocked transpose; a
// 32×32 tile touches at most 32 cache lines each way.
const transposeBlock = 32

// sharesData reports whether the backing arrays of x and y overlap.
func sharesData[T Float](x, y []T) bool {
	if len(x) == 0 || len(y) == 0 {
		return false
	}
	w := unsafe.Sizeof(x[0])
	xs := uintptr(unsafe.Pointer(&x[0]))
	ys := uintptr(unsafe.Pointer(&y[0]))
	return xs < ys+uintptr(len(y))*w && ys < xs+uintptr(len(x))*w
}

func checkDst(dst *Matrix, rows, cols int, a, b *Matrix, op string) {
	if dst.Rows != rows || dst.Cols != cols {
		panic(fmt.Sprintf("tensor: %s dst is %dx%d, want %dx%d", op, dst.Rows, dst.Cols, rows, cols))
	}
	if sharesData(dst.Data, a.Data) || (b != nil && sharesData(dst.Data, b.Data)) {
		panic(fmt.Sprintf("tensor: %s dst aliases an input", op))
	}
}

// MatMul returns a·b. It panics if the inner dimensions disagree.
func MatMul(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Cols)
	MatMulInto(out, a, b)
	return out
}

// MatMulInto computes dst = a·b without allocating. dst must be
// a.Rows×b.Cols and must not alias a or b.
func MatMulInto(dst, a, b *Matrix) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMul inner dim mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	checkDst(dst, a.Rows, b.Cols, a, b, "MatMulInto")
	k, n := a.Cols, b.Cols
	matMul(dst.Data, a.Data, k, 1, b.Data, n, 1, a.Rows, k, n, &panelPool64)
}

// MatMulT returns a·bᵀ without materializing the transpose.
func MatMulT(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Rows)
	MatMulTInto(out, a, b)
	return out
}

// MatMulTInto computes dst = a·bᵀ without allocating or materializing
// the transpose: the packed kernel gathers each block of bᵀ into a
// contiguous panel. dst must be a.Rows×b.Rows and must not alias a or
// b.
func MatMulTInto(dst, a, b *Matrix) {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulT dim mismatch %dx%d · (%dx%d)ᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	checkDst(dst, a.Rows, b.Rows, a, b, "MatMulTInto")
	k, n := a.Cols, b.Rows
	matMul(dst.Data, a.Data, k, 1, b.Data, 1, k, a.Rows, k, n, &panelPool64)
}

// TMatMul returns aᵀ·b without materializing the transpose.
func TMatMul(a, b *Matrix) *Matrix {
	out := New(a.Cols, b.Cols)
	TMatMulInto(out, a, b)
	return out
}

// TMatMulInto computes dst = aᵀ·b without allocating or materializing
// the transpose: the tile walks a column-major through its strides.
// dst must be a.Cols×b.Cols and must not alias a or b.
func TMatMulInto(dst, a, b *Matrix) {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: TMatMul dim mismatch (%dx%d)ᵀ · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	checkDst(dst, a.Cols, b.Cols, a, b, "TMatMulInto")
	k, n := a.Rows, b.Cols
	matMul(dst.Data, a.Data, 1, a.Cols, b.Data, n, 1, a.Cols, k, n, &panelPool64)
}

// Transpose returns a new matrix that is mᵀ.
func (m *Matrix) Transpose() *Matrix {
	out := New(m.Cols, m.Rows)
	TransposeInto(out, m)
	return out
}

// TransposeInto computes dst = mᵀ without allocating. dst must be
// m.Cols×m.Rows and must not alias m. The copy runs over square tiles
// (and in parallel for large matrices) so both the read and the write
// side stay within a few cache lines per tile.
func TransposeInto(dst, m *Matrix) {
	checkDst(dst, m.Cols, m.Rows, m, nil, "TransposeInto")
	if serialRows(m.Cols, m.Rows*m.Cols) {
		transposeRange(dst.Data, m.Data, m.Rows, m.Cols, 0, m.Cols)
		return
	}
	parallelRows(m.Cols, m.Rows*m.Cols, func(lo, hi int) {
		transposeRange(dst.Data, m.Data, m.Rows, m.Cols, lo, hi)
	})
}
