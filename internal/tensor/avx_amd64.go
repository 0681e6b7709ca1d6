//go:build amd64

package tensor

import "unsafe"

// Runtime AVX detection for the register-tiled micro-kernels. The
// baseline amd64 target is SSE2-only, so the tiles in avx_amd64.s are
// gated on CPUID reporting AVX with OS-enabled YMM state (OSXSAVE set
// and XCR0 covering XMM|YMM). Everything falls back to the portable
// generic micro4x in pack.go when the check fails.

// cpuidex executes CPUID with the given leaf/subleaf.
func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 reads XCR0, valid only when CPUID reports OSXSAVE.
func xgetbv0() (eax, edx uint32)

// avx4x8 accumulates a kw-deep product into the 4×jv float64 output
// tile at o (row stride ldo):
//
//	o[r*ldo+j] += a[r*ars+t*aks] * b[t*ldb+j]   for t = 0..kw-1 in order
//
// with strides in elements. Per-element semantics match micro4x
// exactly (one VMULPD and one VADDPD per term, lanes independent), so
// results are bit-identical to the scalar kernel. jv must be a
// positive multiple of 4 and kw ≥ 1.
//
//go:noescape
func avx4x8(o unsafe.Pointer, ldo int, a unsafe.Pointer, ars, aks int, b unsafe.Pointer, ldb, kw, jv int)

// avx4x16 is the float32 form of avx4x8 (VMULPS, VADDPS); jv must be a
// positive multiple of 8.
//
//go:noescape
func avx4x16(o unsafe.Pointer, ldo int, a unsafe.Pointer, ars, aks int, b unsafe.Pointer, ldb, kw, jv int)

// useAVX is a var, not a const, so tests can force the generic path.
var useAVX = detectAVX()

func detectAVX() bool {
	maxID, _, _, _ := cpuidex(0, 0)
	if maxID < 1 {
		return false
	}
	const osxsaveBit = 1 << 27
	const avxBit = 1 << 28
	_, _, ecx, _ := cpuidex(1, 0)
	if ecx&osxsaveBit == 0 || ecx&avxBit == 0 {
		return false
	}
	lo, _ := xgetbv0()
	return lo&0x6 == 0x6 // OS saves XMM and YMM state
}
