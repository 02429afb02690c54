#include "textflag.h"

// func hasAVX() bool
TEXT ·hasAVX(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX // OSXSAVE (bit 27) and AVX (bit 28)
	CMPL CX, $0x18000000
	JNE  no
	XORL CX, CX
	XGETBV               // XCR0 into DX:AX
	ANDL $6, AX          // XMM (bit 1) and YMM (bit 2) state saved
	CMPL AX, $6
	JNE  no
	MOVB $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET

// func addScaledRowsAVX(di, data []float32, off []int, val []float32)
//
// DI = &di[0], CX = len(di) in bytes, SI = &data[0], R8 = &off[0],
// R9 = len(off), R10 = &val[0], R11 = byte offset of the column block,
// DX = &data[j], BX = t, Y0–Y3 the accumulators, Y4 = val[t] in every lane.
TEXT ·addScaledRowsAVX(SB), NOSPLIT, $0-96
	MOVQ di_base+0(FP), DI
	MOVQ di_len+8(FP), CX
	MOVQ data_base+24(FP), SI
	MOVQ off_base+48(FP), R8
	MOVQ off_len+56(FP), R9
	MOVQ val_base+72(FP), R10
	TESTQ R9, R9
	JEQ  done
	SHLQ $2, CX
	XORQ R11, R11

	// 32 columns a pass: four independent accumulators hide VADDPS latency.
wide:
	LEAQ 128(R11), AX
	CMPQ AX, CX
	JGT  narrow
	VMOVUPS (DI)(R11*1), Y0
	VMOVUPS 32(DI)(R11*1), Y1
	VMOVUPS 64(DI)(R11*1), Y2
	VMOVUPS 96(DI)(R11*1), Y3
	LEAQ (SI)(R11*1), DX
	XORQ BX, BX

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
	VMOVUPS Y0, (DI)(R11*1)
	VMOVUPS Y1, 32(DI)(R11*1)
	VMOVUPS Y2, 64(DI)(R11*1)
	VMOVUPS Y3, 96(DI)(R11*1)
	ADDQ $128, R11
	JMP  wide

	// Then 8 columns a pass.
narrow:
	LEAQ 32(R11), AX
	CMPQ AX, CX
	JGT  flush
	VMOVUPS (DI)(R11*1), Y0
	LEAQ (SI)(R11*1), DX
	XORQ BX, BX

narrowTerm:
	MOVQ (R8)(BX*8), AX
	VBROADCASTSS (R10)(BX*4), Y4
	VMULPS (DX)(AX*4), Y4, Y5
	VADDPS Y5, Y0, Y0
	INCQ BX
	CMPQ BX, R9
	JNE  narrowTerm
	VMOVUPS Y0, (DI)(R11*1)
	ADDQ $32, R11
	JMP  narrow

flush:
	VZEROUPPER

done:
	RET
