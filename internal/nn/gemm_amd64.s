#include "textflag.h"

// The tree's one assembly file: the GEMM micro-kernel of gemm.go for
// CPUs with AVX2, and the CPUID probe that decides whether to use it.
// DESIGN.md ("Packed register-blocked GEMM") has the argument for it.

// func cpuHasAVX2() bool
//
// AVX2 needs three things: the CPU implements it (leaf 7 EBX bit 5), it
// implements AVX and XSAVE and the OS has turned XSAVE on (leaf 1 ECX
// bits 28 and 27), and the OS saves both xmm and ymm state (XCR0 bits 1
// and 2) — without the last, ymm registers do not survive a context
// switch.
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JB   no
	MOVL $1, AX
	CPUID
	ANDL $(1<<27 | 1<<28), CX
	CMPL CX, $(1<<27 | 1<<28)
	JNE  no
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no
	MOVL $7, AX
	XORL CX, CX
	CPUID
	TESTL $(1<<5), BX
	JZ   no
	MOVB $1, ret+0(FP)
no:
	RET

// One k step of one C row: broadcast the row's A value to all lanes, form
// the two 8-lane products with VMULPS and add them with VADDPS. Two
// instructions, two roundings: never VFMADD, whose single rounding is a
// different float32 than the scalar reference computes.
#define ROWSTEP(arow, acc0, acc1) \
	VBROADCASTSS (arow)(AX*4), Y10; \
	VMULPS       Y8, Y10, Y11;      \
	VMULPS       Y9, Y10, Y12;      \
	VADDPS       Y11, acc0, acc0;   \
	VADDPS       Y12, acc1, acc1

// Retire one C row in gemmDotAdd mode: C + s, C first as in the Go kernel.
#define ROWADD(crow, acc0, acc1) \
	VMOVUPS (crow), Y8;     \
	VMOVUPS 32(crow), Y9;   \
	VADDPS  acc0, Y8, acc0; \
	VADDPS  acc1, Y9, acc1

// func gemmTileAVX2(k int, a *float32, lda int, panel *float32, c *float32, ldc int, mode int)
//
// The 4×16 tile of C at c (row stride ldc floats) against 4 rows of A at
// a (row stride lda floats, k values each) and a packed panel of k rows ×
// 16 floats. Lanes are C columns; every lane runs, for ascending kk,
// s = round(s + round(a[kk]·b[kk])) — the scalar sequence, eight columns
// at a time. mode is a gemmMode: 0 seeds s from C and stores it, 1 seeds
// s with +0 and stores C + s, 2 seeds s with +0 and stores it. No zero
// guard: the caller sends only rows that need none. Loads and stores are
// unaligned and stay inside the tile, the 4 rows of A and the panel.
TEXT ·gemmTileAVX2(SB), NOSPLIT, $0-56
	MOVQ k+0(FP), CX
	MOVQ a+8(FP), SI
	MOVQ lda+16(FP), R8
	MOVQ panel+24(FP), DX
	MOVQ c+32(FP), DI
	MOVQ ldc+40(FP), R9
	SHLQ $2, R8                // strides in bytes
	SHLQ $2, R9
	LEAQ (SI)(R8*1), R10       // A rows 1..3
	LEAQ (SI)(R8*2), R11
	LEAQ (R10)(R8*2), R12
	LEAQ (DI)(R9*1), R8        // C rows 1..3
	LEAQ (DI)(R9*2), BX
	LEAQ (R8)(R9*2), R13

	MOVQ  mode+48(FP), AX
	TESTQ AX, AX
	JNZ   zero
	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS (R8), Y2
	VMOVUPS 32(R8), Y3
	VMOVUPS (BX), Y4
	VMOVUPS 32(BX), Y5
	VMOVUPS (R13), Y6
	VMOVUPS 32(R13), Y7
	JMP   seeded
zero:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
seeded:
	XORQ  AX, AX               // kk
	TESTQ CX, CX
	JLE   retire
loop:
	VMOVUPS (DX), Y8
	VMOVUPS 32(DX), Y9
	ROWSTEP(SI, Y0, Y1)
	ROWSTEP(R10, Y2, Y3)
	ROWSTEP(R11, Y4, Y5)
	ROWSTEP(R12, Y6, Y7)
	ADDQ $64, DX
	INCQ AX
	CMPQ AX, CX
	JLT  loop
retire:
	MOVQ mode+48(FP), AX
	CMPQ AX, $1
	JNE  store
	ROWADD(DI, Y0, Y1)
	ROWADD(R8, Y2, Y3)
	ROWADD(BX, Y4, Y5)
	ROWADD(R13, Y6, Y7)
store:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, (R8)
	VMOVUPS Y3, 32(R8)
	VMOVUPS Y4, (BX)
	VMOVUPS Y5, 32(BX)
	VMOVUPS Y6, (R13)
	VMOVUPS Y7, 32(R13)
	VZEROUPPER
	RET
