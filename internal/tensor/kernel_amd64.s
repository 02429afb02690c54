#include "textflag.h"

// lanes<>+4(8−n) is a VMASKMOVPS mask selecting the first n of 8 lanes.
DATA lanes<>+0(SB)/8, $-1
DATA lanes<>+8(SB)/8, $-1
DATA lanes<>+16(SB)/8, $-1
DATA lanes<>+24(SB)/8, $-1
DATA lanes<>+32(SB)/8, $0
DATA lanes<>+40(SB)/8, $0
DATA lanes<>+48(SB)/8, $0
DATA lanes<>+56(SB)/8, $0
GLOBL lanes<>(SB), RODATA|NOPTR, $64

// func addScaledRowsAVX(di, data []float32, off []int, val, bias []float32, acc, relu bool)
//
// DI = &di[0], CX = len(di) in bytes, SI = &data[0], R8 = &off[0],
// R9 = len(off), R10 = &val[0], R12 = &bias[0], R13 = len(bias),
// R11 = byte offset of the column block, DX = &data[j], BX = t, Y0–Y3 the
// accumulators, Y4 = val[t] in every lane, Y9 = +0, Y15 the block's mask.
TEXT ·addScaledRowsAVX(SB), NOSPLIT, $0-122
	MOVQ di_base+0(FP), DI
	MOVQ di_len+8(FP), CX
	MOVQ data_base+24(FP), SI
	MOVQ off_base+48(FP), R8
	MOVQ off_len+56(FP), R9
	MOVQ val_base+72(FP), R10
	MOVQ bias_base+96(FP), R12
	MOVQ bias_len+104(FP), R13
	SHLQ $2, CX
	XORQ R11, R11
	VXORPS Y9, Y9, Y9

	// 32 columns a pass: four independent accumulators hide VADDPS latency.
wide:
	LEAQ 128(R11), AX
	CMPQ AX, CX
	JGT  single
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	CMPB acc+120(FP), $0
	JEQ  wideSum
	VMOVUPS (DI)(R11*1), Y0
	VMOVUPS 32(DI)(R11*1), Y1
	VMOVUPS 64(DI)(R11*1), Y2
	VMOVUPS 96(DI)(R11*1), Y3

wideSum:
	LEAQ (SI)(R11*1), DX
	XORQ BX, BX
	CMPQ BX, R9
	JEQ  wideBias

wideTerm:
	MOVQ (R8)(BX*8), AX
	VBROADCASTSS (R10)(BX*4), Y4
	VMULPS (DX)(AX*4), Y4, Y5
	VADDPS Y5, Y0, Y0
	VMULPS 32(DX)(AX*4), Y4, Y6
	VADDPS Y6, Y1, Y1
	VMULPS 64(DX)(AX*4), Y4, Y7
	VADDPS Y7, Y2, Y2
	VMULPS 96(DX)(AX*4), Y4, Y8
	VADDPS Y8, Y3, Y3
	INCQ BX
	CMPQ BX, R9
	JNE  wideTerm

wideBias:
	TESTQ R13, R13
	JEQ   wideRelu
	VADDPS (R12)(R11*1), Y0, Y0
	VADDPS 32(R12)(R11*1), Y1, Y1
	VADDPS 64(R12)(R11*1), Y2, Y2
	VADDPS 96(R12)(R11*1), Y3, Y3

wideRelu:
	CMPB relu+121(FP), $0 // keep v where !(v <= 0), NaN included
	JEQ   wideStore
	VCMPPS $6, Y9, Y0, Y5   // NLE_UQ
	VANDPS Y5, Y0, Y0
	VCMPPS $6, Y9, Y1, Y6
	VANDPS Y6, Y1, Y1
	VCMPPS $6, Y9, Y2, Y7
	VANDPS Y7, Y2, Y2
	VCMPPS $6, Y9, Y3, Y8
	VANDPS Y8, Y3, Y3

wideStore:
	VMOVUPS Y0, (DI)(R11*1)
	VMOVUPS Y1, 32(DI)(R11*1)
	VMOVUPS Y2, 64(DI)(R11*1)
	VMOVUPS Y3, 96(DI)(R11*1)
	ADDQ $128, R11
	JMP  wide

	// Then 8 columns a pass, every access masked to the columns left: the
	// last block's lanes past len(di) are never read or written.
single:
	MOVQ CX, AX
	SUBQ R11, AX
	JLE  flush
	MOVQ $32, BX
	CMPQ AX, BX
	CMOVQGT BX, AX
	NEGQ AX
	LEAQ lanes<>+32(SB), DX
	VMOVUPS (DX)(AX*1), Y15
	VXORPS Y0, Y0, Y0
	CMPB acc+120(FP), $0
	JEQ  singleSum
	VMASKMOVPS (DI)(R11*1), Y15, Y0

singleSum:
	LEAQ (SI)(R11*1), DX
	XORQ BX, BX
	CMPQ BX, R9
	JEQ  singleBias

singleTerm:
	MOVQ (R8)(BX*8), AX
	VBROADCASTSS (R10)(BX*4), Y4
	VMASKMOVPS (DX)(AX*4), Y15, Y5
	VMULPS Y5, Y4, Y5
	VADDPS Y5, Y0, Y0
	INCQ BX
	CMPQ BX, R9
	JNE  singleTerm

singleBias:
	TESTQ R13, R13
	JEQ   singleRelu
	VMASKMOVPS (R12)(R11*1), Y15, Y5
	VADDPS Y5, Y0, Y0

singleRelu:
	CMPB relu+121(FP), $0
	JEQ   singleStore
	VCMPPS $6, Y9, Y0, Y5
	VANDPS Y5, Y0, Y0

singleStore:
	VMASKMOVPS Y0, Y15, (DI)(R11*1)
	ADDQ $32, R11
	JMP  single

flush:
	VZEROUPPER
	RET

// func compactAVX(off *[kChunk]int, val *[kChunk]float32, s []float32, at, stride, o, cols, kn int) int
//
// SI = &s[at + k·stride], R8 = stride in bytes, R9 = o + k·cols, DX = kept.
TEXT ·compactAVX(SB), NOSPLIT, $0-88
	MOVQ off+0(FP), DI
	MOVQ val+8(FP), BX
	MOVQ s_base+16(FP), SI
	MOVQ at+40(FP), AX
	LEAQ (SI)(AX*4), SI
	MOVQ stride+48(FP), R8
	SHLQ $2, R8
	MOVQ o+56(FP), R9
	MOVQ cols+64(FP), R10
	MOVQ kn+72(FP), CX
	XORQ DX, DX
	TESTQ CX, CX
	JEQ  kept

term:
	MOVL (SI), AX
	MOVL AX, (BX)(DX*4)
	MOVQ R9, (DI)(DX*8)
	ADDL AX, AX // the sign bit out: zero iff the term is ±0
	NEGL AX     // carry set iff non-zero
	ADCQ $0, DX
	ADDQ R8, SI
	ADDQ R10, R9
	DECQ CX
	JNE  term

kept:
	MOVQ DX, ret+80(FP)
	RET
