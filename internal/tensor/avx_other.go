//go:build !amd64

package tensor

import "unsafe"

// Non-amd64 targets always take the portable generic micro-kernel.
var useAVX = false

func avx4x8(o unsafe.Pointer, ldo int, a unsafe.Pointer, ars, aks int, b unsafe.Pointer, ldb, kw, jv int) {
	panic("tensor: avx4x8 called without AVX support")
}

func avx4x16(o unsafe.Pointer, ldo int, a unsafe.Pointer, ars, aks int, b unsafe.Pointer, ldb, kw, jv int) {
	panic("tensor: avx4x16 called without AVX support")
}
