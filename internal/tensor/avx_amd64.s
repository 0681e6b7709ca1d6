//go:build amd64

#include "textflag.h"

// func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidex(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// The two register tiles below share one body and differ only in lane
// width: avx4x8 is float64 (VBROADCASTSD, VMULPD, VADDPD), avx4x16 is
// float32 (the PS forms). A 4-row accumulator tile, two YMM registers
// (64 bytes) wide, lives in Y0–Y7 across the whole k sweep; per k step
// the two B vectors are loaded once and reused by all four rows via a
// broadcast of that row's A entry. Each output element sees one
// multiply and one add per k in k-increasing order — bitwise the
// arithmetic of the scalar micro4x, lanes independent, no FMA. A final
// half-width chunk (one YMM per row, Y0/Y2/Y4/Y6) covers a jv that is
// an odd multiple of the lane count.
//
// Registers, all strides in bytes:
//   R8 output tile base   R9 ldo    R10 3·ldo
//   R11 A base            R12 ars   R13 3·ars   DX aks
//   BX B chunk base       DI ldb    R14 kw      R15 bytes of jv left
//   AX, SI, CX: the k loop's A pointer, B pointer and countdown.

#define LOADTILE(MOV) \
	MOV (R8), Y0; MOV 32(R8), Y1; \
	MOV (R8)(R9*1), Y2; MOV 32(R8)(R9*1), Y3; \
	MOV (R8)(R9*2), Y4; MOV 32(R8)(R9*2), Y5; \
	MOV (R8)(R10*1), Y6; MOV 32(R8)(R10*1), Y7

#define STORETILE(MOV) \
	MOV Y0, (R8); MOV Y1, 32(R8); \
	MOV Y2, (R8)(R9*1); MOV Y3, 32(R8)(R9*1); \
	MOV Y4, (R8)(R9*2); MOV Y5, 32(R8)(R9*2); \
	MOV Y6, (R8)(R10*1); MOV Y7, 32(R8)(R10*1)

#define LOADHALF(MOV) \
	MOV (R8), Y0; MOV (R8)(R9*1), Y2; MOV (R8)(R9*2), Y4; MOV (R8)(R10*1), Y6

#define STOREHALF(MOV) \
	MOV Y0, (R8); MOV Y2, (R8)(R9*1); MOV Y4, (R8)(R9*2); MOV Y6, (R8)(R10*1)

// ROW2 accumulates one A entry against both B vectors (Y8, Y9).
#define ROW2(BCAST, MUL, ADD, src, acc0, acc1) \
	BCAST src, Y10; \
	MUL Y8, Y10, Y11; ADD Y11, acc0, acc0; \
	MUL Y9, Y10, Y12; ADD Y12, acc1, acc1

// ROW1 accumulates one A entry against the half-width B vector (Y8).
#define ROW1(BCAST, MUL, ADD, src, acc) \
	BCAST src, Y10; MUL Y8, Y10, Y11; ADD Y11, acc, acc

// TILE is the shared body; the prologue has loaded the registers.
#define TILE(MOV, BCAST, MUL, ADD) \
	CMPQ R15, $64; \
	JLT  half; \
full: \
	LOADTILE(MOV); \
	MOVQ R11, AX; MOVQ BX, SI; MOVQ R14, CX; \
kfull: \
	MOV (SI), Y8; MOV 32(SI), Y9; \
	ROW2(BCAST, MUL, ADD, (AX), Y0, Y1); \
	ROW2(BCAST, MUL, ADD, (AX)(R12*1), Y2, Y3); \
	ROW2(BCAST, MUL, ADD, (AX)(R12*2), Y4, Y5); \
	ROW2(BCAST, MUL, ADD, (AX)(R13*1), Y6, Y7); \
	ADDQ DX, AX; ADDQ DI, SI; \
	DECQ CX; JNZ kfull; \
	STORETILE(MOV); \
	ADDQ $64, R8; ADDQ $64, BX; \
	SUBQ $64, R15; CMPQ R15, $64; JGE full; \
half: \
	TESTQ R15, R15; JZ done; \
	LOADHALF(MOV); \
	MOVQ R11, AX; MOVQ BX, SI; MOVQ R14, CX; \
khalf: \
	MOV (SI), Y8; \
	ROW1(BCAST, MUL, ADD, (AX), Y0); \
	ROW1(BCAST, MUL, ADD, (AX)(R12*1), Y2); \
	ROW1(BCAST, MUL, ADD, (AX)(R12*2), Y4); \
	ROW1(BCAST, MUL, ADD, (AX)(R13*1), Y6); \
	ADDQ DX, AX; ADDQ DI, SI; \
	DECQ CX; JNZ khalf; \
	STOREHALF(MOV); \
done: \
	VZEROUPPER; \
	RET

// SCALE turns the element strides and jv into bytes, 1<<shift each.
#define SCALE(shift) \
	SHLQ $shift, R9; LEAQ (R9)(R9*2), R10; \
	SHLQ $shift, R12; LEAQ (R12)(R12*2), R13; \
	SHLQ $shift, DX; \
	SHLQ $shift, DI; \
	SHLQ $shift, R15

// func avx4x8(o unsafe.Pointer, ldo int, a unsafe.Pointer, ars, aks int, b unsafe.Pointer, ldb, kw, jv int)
TEXT ·avx4x8(SB), NOSPLIT, $0-72
	MOVQ o+0(FP), R8
	MOVQ ldo+8(FP), R9
	MOVQ a+16(FP), R11
	MOVQ ars+24(FP), R12
	MOVQ aks+32(FP), DX
	MOVQ b+40(FP), BX
	MOVQ ldb+48(FP), DI
	MOVQ kw+56(FP), R14
	MOVQ jv+64(FP), R15
	SCALE(3)
	TILE(VMOVUPD, VBROADCASTSD, VMULPD, VADDPD)

// func avx4x16(o unsafe.Pointer, ldo int, a unsafe.Pointer, ars, aks int, b unsafe.Pointer, ldb, kw, jv int)
TEXT ·avx4x16(SB), NOSPLIT, $0-72
	MOVQ o+0(FP), R8
	MOVQ ldo+8(FP), R9
	MOVQ a+16(FP), R11
	MOVQ ars+24(FP), R12
	MOVQ aks+32(FP), DX
	MOVQ b+40(FP), BX
	MOVQ ldb+48(FP), DI
	MOVQ kw+56(FP), R14
	MOVQ jv+64(FP), R15
	SCALE(2)
	TILE(VMOVUPS, VBROADCASTSS, VMULPS, VADDPS)
