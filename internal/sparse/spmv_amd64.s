#include "textflag.h"

// func spmvRows(y0, x0, v []float64, ci, rp []int, lo, hi int) int
//
// The single-column row loop of mulColGo in scalar SSE2: per row, four
// accumulators X0..X3 take entries p, p+1, p+2, p+3 in steps of four, the
// remainder goes into X0, and y = (X0+X1)+(X2+X3). Each product is a MULSD
// and each sum an ADDSD, rounded on its own as the Go body compiles, so
// every y bit is the Go body's.
//
// Registers: AX entry p, BX row end, CX row i, DX column index, SI x0,
// R8 len(x0), R9 v, R10 ci, R11 rp, R12 row end - 4,
// R13 min(len(ci), len(v)).
TEXT ·spmvRows(SB), NOSPLIT, $0-144
	MOVQ x0_base+24(FP), SI
	MOVQ x0_len+32(FP), R8
	MOVQ v_base+48(FP), R9
	MOVQ v_len+56(FP), DX
	MOVQ ci_base+72(FP), R10
	MOVQ ci_len+80(FP), R13
	CMPQ DX, R13
	CMOVQCS DX, R13
	MOVQ rp_base+96(FP), R11
	MOVQ lo+120(FP), CX
	MOVQ (R11)(CX*8), AX

row:
	CMPQ CX, hi+128(FP)
	JGE  stop
	// The row's entries [AX, BX) must lie in ci and v: BX <= R13 and
	// AX <= BX, unsigned, so a negative bound fails too.
	MOVQ 8(R11)(CX*8), BX
	CMPQ BX, R13
	JHI  stop
	CMPQ AX, BX
	JHI  stop
	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	LEAQ -4(BX), R12
	CMPQ AX, R12
	JGT  tail

	PCALIGN $64
quad:
	// Each column index is checked below len(x0), unsigned, before x0
	// is loaded at it.
	MOVQ  (R10)(AX*8), DX
	CMPQ  DX, R8
	JCC   stop
	MOVSD (R9)(AX*8), X4
	MULSD (SI)(DX*8), X4
	ADDSD X4, X0
	MOVQ  8(R10)(AX*8), DX
	CMPQ  DX, R8
	JCC   stop
	MOVSD 8(R9)(AX*8), X5
	MULSD (SI)(DX*8), X5
	ADDSD X5, X1
	MOVQ  16(R10)(AX*8), DX
	CMPQ  DX, R8
	JCC   stop
	MOVSD 16(R9)(AX*8), X6
	MULSD (SI)(DX*8), X6
	ADDSD X6, X2
	MOVQ  24(R10)(AX*8), DX
	CMPQ  DX, R8
	JCC   stop
	MOVSD 24(R9)(AX*8), X7
	MULSD (SI)(DX*8), X7
	ADDSD X7, X3
	ADDQ  $4, AX
	CMPQ  AX, R12
	JLE   quad

tail:
	CMPQ  AX, BX
	JGE   sum
	MOVQ  (R10)(AX*8), DX
	CMPQ  DX, R8
	JCC   stop
	MOVSD (R9)(AX*8), X4
	MULSD (SI)(DX*8), X4
	ADDSD X4, X0
	INCQ  AX
	JMP   tail

sum:
	// AX == BX now: the next row starts where this one ended.
	ADDSD X1, X0
	ADDSD X3, X2
	ADDSD X2, X0
	MOVQ  y0_base+0(FP), DX
	MOVSD X0, (DX)(CX*8)
	INCQ  CX
	JMP   row

stop:
	MOVQ CX, ret+136(FP)
	RET
