package tensor

import (
	"sync"
	"unsafe"
)

// This file is the matmul core shared by both precisions and all three
// orientations (a·b, a·bᵀ, aᵀ·b): one generic (float32/float64)
// cache-blocked range function driving a 4-row register-tiled
// micro-kernel.
//
// Strides. A entries are addressed as a[i*aRow + k*aCol] and B entries
// as b[k*bRow + j*bCol], so (cols, 1) walks a row-major operand and
// (1, cols) walks its transpose without materializing it. The tile
// reads A through its strides — four scalars per k step, each
// broadcast across a row — and reads B in place as well when B is
// row-major and no wider than one column block. Only the rest is
// packed, one block at a time, into pooled scratch sized to that block
// (matMulRange says when).
//
// Blocking. The output is computed in packNC-wide column blocks and
// packKC-deep k blocks; within a block every 4-row output strip runs
// the tile against the same B block, which stays cache-resident.
//
// Micro-kernel. A full 4-row strip goes to the AVX tile of its
// precision (avx_amd64.s) when the host has AVX, with micro4x finishing
// the columns the vector width cannot cover; ragged strips take
// micro1x. Every route updates each output element with one multiply
// and one left-associated add per k term, in k-increasing order, so
// the result is bit-exact against the naive triple loop whichever
// route a strip takes.

const (
	// packMR is the micro-kernel's output strip height.
	packMR = 4
	// packKC and packNC are the k/j block edges. A B block spans at
	// most packKC·packNC scalars (1 MiB f64, 512 KiB f32), sized to sit
	// in a per-core L2/LLC slice while output strips stream by.
	packKC = 256
	packNC = 512
	// panelPad widens each packed B row by a cache line or two so the
	// tile's k sweep down one column chunk does not map every row to
	// the same few L1 sets, as a power-of-two row stride would.
	panelPad = 16
)

// Float is the scalar constraint shared by the generic kernels.
type Float interface{ ~float32 | ~float64 }

// Pools of *[]T packing scratch, one per precision. A buffer grows to
// the largest A strip plus B block it has served, so warmed kernels
// allocate nothing and small products never hold a full-block panel.
var (
	panelPool64 = sync.Pool{New: func() any { return new([]float64) }}
	panelPool32 = sync.Pool{New: func() any { return new([]float32) }}
)

// matMul computes all m rows of the n-wide dst = A·B (k the inner
// dimension), split across the shared worker pool. panels supplies the
// packing scratch for the operands matMulRange cannot stream in place.
func matMul[T Float](dst, a []T, aRow, aCol int, b []T, bRow, bCol, m, k, n int, panels *sync.Pool) {
	if serialRows(m, m*k*n) {
		matMulRange(dst, a, aRow, aCol, b, bRow, bCol, k, n, 0, m, panels)
		return
	}
	parallelRows(m, m*k*n, func(lo, hi int) {
		matMulRange(dst, a, aRow, aCol, b, bRow, bCol, k, n, lo, hi, panels)
	})
}

// matMulRange computes rows [lo, hi) of the n-wide output dst = A·B.
func matMulRange[T Float](dst, a []T, aRow, aCol int, b []T, bRow, bCol, k, n, lo, hi int, panels *sync.Pool) {
	for i := lo; i < hi; i++ {
		clear(dst[i*n : i*n+n])
	}
	if k == 0 || n == 0 || lo == hi {
		return
	}
	// A row-major B no wider than one column block already is the
	// contiguous kw×jw panel the tile streams; anything else is packed.
	// A transposed A strip is packed only under a wide output, where the
	// tile re-reads it across many column chunks; under the narrow
	// outputs of layer steps, packing it costs more than it saves.
	wide := n > packNC
	packB := bCol != 1 || wide
	packA := aCol != 1 && wide
	var bPanel, aPanel []T
	if packB || packA {
		kc := min(k, packKC)
		need := packMR*kc + kc*(min(n, packNC)+panelPad)
		p := panels.Get().(*[]T)
		if cap(*p) < need {
			*p = make([]T, need)
		}
		defer panels.Put(p)
		aPanel, bPanel = (*p)[:packMR*kc], (*p)[packMR*kc:need]
	}
	for jb := 0; jb < n; jb += packNC {
		jw := min(packNC, n-jb)
		for kb := 0; kb < k; kb += packKC {
			kw := min(packKC, k-kb)
			bp, ldb := b[kb*bRow+jb*bCol:], bRow
			if packB {
				bp, ldb = bPanel, jw+panelPad
				for t := 0; t < kw; t++ {
					row := bp[t*ldb : t*ldb+jw]
					src := (kb+t)*bRow + jb*bCol
					if bCol == 1 {
						copy(row, b[src:src+jw])
						continue
					}
					for j := range row {
						row[j] = b[src+j*bCol]
					}
				}
			}
			i := lo
			for ; i+packMR <= hi; i += packMR {
				o := dst[i*n+jb:]
				ap, ars, aks := a[i*aRow+kb*aCol:], aRow, aCol
				if packA {
					for t := 0; t < kw; t++ {
						for r := 0; r < packMR; r++ {
							aPanel[t*packMR+r] = ap[r*aRow+t*aCol]
						}
					}
					ap, ars, aks = aPanel, 1, packMR
				}
				jv := 0
				if useAVX {
					jv = avxTile(o, n, ap, ars, aks, bp, ldb, kw, jw)
				}
				if jv < jw {
					micro4x(o, n, ap, ars, aks, bp, ldb, kw, jv, jw)
				}
			}
			for ; i < hi; i++ {
				micro1x(dst[i*n+jb:][:jw], a[i*aRow+kb*aCol:], aCol, bp, ldb, kw)
			}
		}
	}
}

// avxTile runs the AVX tile of T's precision over the widest prefix of
// the jw columns its vector width covers and returns that width.
func avxTile[T Float](o []T, ldo int, a []T, ars, aks int, b []T, ldb, kw, jw int) int {
	if unsafe.Sizeof(o[0]) == 8 {
		jv := jw &^ 3
		if jv > 0 {
			avx4x8(unsafe.Pointer(&o[0]), ldo, unsafe.Pointer(&a[0]), ars, aks, unsafe.Pointer(&b[0]), ldb, kw, jv)
		}
		return jv
	}
	jv := jw &^ 7
	if jv > 0 {
		avx4x16(unsafe.Pointer(&o[0]), ldo, unsafe.Pointer(&a[0]), ars, aks, unsafe.Pointer(&b[0]), ldb, kw, jv)
	}
	return jv
}

// micro4x accumulates a kw-deep product into columns [jv, jw) of the
// four output rows o[r*ldo:], with A entry (r, t) at a[r*ars+t*aks]
// and B row t at b[t*ldb:]. The k-loop is unrolled 4-way; per
// iteration the four B rows are loaded once and reused across all four
// output rows. Additions are explicit and left-associated so each
// output element accumulates in exactly naive k-order.
func micro4x[T Float](o []T, ldo int, a []T, ars, aks int, b []T, ldb, kw, jv, jw int) {
	o0 := o[jv:jw]
	o1 := o[ldo+jv:][:len(o0)]
	o2 := o[2*ldo+jv:][:len(o0)]
	o3 := o[3*ldo+jv:][:len(o0)]
	kk := 0
	for ; kk+4 <= kw; kk += 4 {
		t := kk * aks
		a00, a10, a20, a30 := a[t], a[t+ars], a[t+2*ars], a[t+3*ars]
		t += aks
		a01, a11, a21, a31 := a[t], a[t+ars], a[t+2*ars], a[t+3*ars]
		t += aks
		a02, a12, a22, a32 := a[t], a[t+ars], a[t+2*ars], a[t+3*ars]
		t += aks
		a03, a13, a23, a33 := a[t], a[t+ars], a[t+2*ars], a[t+3*ars]
		b0 := b[kk*ldb+jv:][:len(o0)]
		b1 := b[(kk+1)*ldb+jv:][:len(o0)]
		b2 := b[(kk+2)*ldb+jv:][:len(o0)]
		b3 := b[(kk+3)*ldb+jv:][:len(o0)]
		for j, bv0 := range b0 {
			bv1, bv2, bv3 := b1[j], b2[j], b3[j]
			o0[j] = o0[j] + a00*bv0 + a01*bv1 + a02*bv2 + a03*bv3
			o1[j] = o1[j] + a10*bv0 + a11*bv1 + a12*bv2 + a13*bv3
			o2[j] = o2[j] + a20*bv0 + a21*bv1 + a22*bv2 + a23*bv3
			o3[j] = o3[j] + a30*bv0 + a31*bv1 + a32*bv2 + a33*bv3
		}
	}
	for ; kk < kw; kk++ {
		t := kk * aks
		a0, a1, a2, a3 := a[t], a[t+ars], a[t+2*ars], a[t+3*ars]
		brow := b[kk*ldb+jv:][:len(o0)]
		for j, bv := range brow {
			o0[j] = o0[j] + a0*bv
			o1[j] = o1[j] + a1*bv
			o2[j] = o2[j] + a2*bv
			o3[j] = o3[j] + a3*bv
		}
	}
}

// micro1x is the ragged-strip variant of micro4x: one output row o,
// whose A entries are a[t*aks].
func micro1x[T Float](o []T, a []T, aks int, b []T, ldb, kw int) {
	kk := 0
	for ; kk+4 <= kw; kk += 4 {
		a0, a1, a2, a3 := a[kk*aks], a[(kk+1)*aks], a[(kk+2)*aks], a[(kk+3)*aks]
		b0 := b[kk*ldb:][:len(o)]
		b1 := b[(kk+1)*ldb:][:len(o)]
		b2 := b[(kk+2)*ldb:][:len(o)]
		b3 := b[(kk+3)*ldb:][:len(o)]
		for j, bv0 := range b0 {
			o[j] = o[j] + a0*bv0 + a1*b1[j] + a2*b2[j] + a3*b3[j]
		}
	}
	for ; kk < kw; kk++ {
		av := a[kk*aks]
		brow := b[kk*ldb:][:len(o)]
		for j, bv := range brow {
			o[j] = o[j] + av*bv
		}
	}
}

// transposeRange writes output rows [lo, hi) of dst = mᵀ in square
// tiles. rows×cols is m's shape.
func transposeRange[T Float](dst, m []T, rows, cols, lo, hi int) {
	for ib := lo; ib < hi; ib += transposeBlock {
		ie := min(ib+transposeBlock, hi)
		for jb := 0; jb < rows; jb += transposeBlock {
			je := min(jb+transposeBlock, rows)
			for j := jb; j < je; j++ {
				row := m[j*cols : j*cols+cols]
				for i := ib; i < ie; i++ {
					dst[i*rows+j] = row[i]
				}
			}
		}
	}
}
