#include "textflag.h"

// signbit<> is −0: XORed into a lane it negates the lane, NaN included.
DATA signbit<>+0(SB)/8, $0x8000000000000000
GLOBL signbit<>(SB), RODATA|NOPTR, $8

// ones4<>[m] is the number of set bits in the 4-bit mask m.
DATA ones4<>+0(SB)/8, $0x0302020102010100
DATA ones4<>+8(SB)/8, $0x0403030203020201
GLOBL ones4<>(SB), RODATA|NOPTR, $16

// lanebit<> is 1<<j in int32 lane j, j = 0..7.
DATA lanebit<>+0(SB)/8, $0x0000000200000001
DATA lanebit<>+8(SB)/8, $0x0000000800000004
DATA lanebit<>+16(SB)/8, $0x0000002000000010
DATA lanebit<>+24(SB)/8, $0x0000008000000040
GLOBL lanebit<>(SB), RODATA|NOPTR, $32

// func compensateAVX(comp []float64, g, res []float32, bits []byte) (posSum, negSum float64, posCnt int)
//
// DI = &comp[8k], SI = &g[8k], R8 = &res[8k], R9 = &bits[k], CX = bytes
// left, R10 = &ones4, R11 = posCnt, X0 = posSum, X1 = negSum, Y14 = −0 in
// every lane, Y15 = +0.
TEXT ·compensateAVX(SB), NOSPLIT, $0-120
	MOVQ comp_base+0(FP), DI
	MOVQ comp_len+8(FP), CX
	MOVQ g_base+24(FP), SI
	MOVQ res_base+48(FP), R8
	MOVQ bits_base+72(FP), R9
	LEAQ ones4<>(SB), R10
	XORQ R11, R11
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y15, Y15, Y15
	VBROADCASTSD signbit<>(SB), Y14
	SHRQ $3, CX
	JEQ  done

whole:
	VCVTPS2PD (SI), Y2
	VCVTPS2PD 16(SI), Y3
	VCVTPS2PD (R8), Y4
	VCVTPS2PD 16(R8), Y5
	VADDPD Y4, Y2, Y2 // x = g + res
	VADDPD Y5, Y3, Y3
	VMOVUPD Y2, (DI)
	VMOVUPD Y3, 32(DI)
	VCMPPD $0x1d, Y15, Y2, Y4 // x >= 0: GE_OQ
	VCMPPD $0x1d, Y15, Y3, Y5
	VMOVMSKPD Y4, AX
	VMOVMSKPD Y5, BX
	MOVBQZX (R10)(AX*1), DX
	ADDQ DX, R11
	MOVBQZX (R10)(BX*1), DX
	ADDQ DX, R11
	SHLL $4, BX
	ORL  BX, AX
	MOVB AX, (R9)
	VANDPD Y4, Y2, Y6  // positive addends: x where x >= 0, +0 elsewhere
	VANDPD Y5, Y3, Y7
	VXORPD Y14, Y2, Y2 // negative addends: −x where !(x >= 0), +0 elsewhere
	VXORPD Y14, Y3, Y3
	VANDNPD Y2, Y4, Y8
	VANDNPD Y3, Y5, Y9

	// Lanes 0–3, then 4–7, into both sums in index order.
	VADDSD X6, X0, X0
	VADDSD X8, X1, X1
	VPERMILPD $1, X6, X10
	VPERMILPD $1, X8, X11
	VADDSD X10, X0, X0
	VADDSD X11, X1, X1
	VEXTRACTF128 $1, Y6, X6
	VEXTRACTF128 $1, Y8, X8
	VADDSD X6, X0, X0
	VADDSD X8, X1, X1
	VPERMILPD $1, X6, X10
	VPERMILPD $1, X8, X11
	VADDSD X10, X0, X0
	VADDSD X11, X1, X1
	VADDSD X7, X0, X0
	VADDSD X9, X1, X1
	VPERMILPD $1, X7, X10
	VPERMILPD $1, X9, X11
	VADDSD X10, X0, X0
	VADDSD X11, X1, X1
	VEXTRACTF128 $1, Y7, X7
	VEXTRACTF128 $1, Y9, X9
	VADDSD X7, X0, X0
	VADDSD X9, X1, X1
	VPERMILPD $1, X7, X10
	VPERMILPD $1, X9, X11
	VADDSD X10, X0, X0
	VADDSD X11, X1, X1

	ADDQ $64, DI
	ADDQ $32, SI
	ADDQ $32, R8
	INCQ R9
	DECQ CX
	JNE  whole

done:
	VMOVSD X0, posSum+96(FP)
	VMOVSD X1, negSum+104(FP)
	MOVQ R11, posCnt+112(FP)
	VZEROUPPER
	RET

// func residualAVX(comp []float64, res []float32, pos, neg float64)
//
// DI = &comp[8k], R8 = &res[8k], CX = bytes left, Y12 = pos and Y13 = neg
// in every lane, Y15 = +0.
TEXT ·residualAVX(SB), NOSPLIT, $0-64
	MOVQ comp_base+0(FP), DI
	MOVQ comp_len+8(FP), CX
	MOVQ res_base+24(FP), R8
	VBROADCASTSD pos+48(FP), Y12
	VBROADCASTSD neg+56(FP), Y13
	VXORPD Y15, Y15, Y15
	SHRQ $3, CX
	JEQ  flush

resid:
	VMOVUPD (DI), Y2
	VMOVUPD 32(DI), Y3
	VCMPPD $0x1d, Y15, Y2, Y4
	VCMPPD $0x1d, Y15, Y3, Y5
	VBLENDVPD Y4, Y12, Y13, Y6 // the decoded value: pos where x >= 0, else neg
	VBLENDVPD Y5, Y12, Y13, Y7
	VSUBPD Y6, Y2, Y6          // x − decoded
	VSUBPD Y7, Y3, Y7
	VCVTPD2PSY Y6, X6
	VCVTPD2PSY Y7, X7
	VMOVUPS X6, (R8)
	VMOVUPS X7, 16(R8)
	ADDQ $64, DI
	ADDQ $32, R8
	DECQ CX
	JNE  resid

flush:
	VZEROUPPER
	RET

// func decodeAVX(out []float32, bits []byte, pos, neg float32)
//
// DI = &out[8k], SI = &bits[k], CX = bytes left, Y12 = pos and Y13 = neg in
// every lane, X14/X15 = lanebit's low/high half.
TEXT ·decodeAVX(SB), NOSPLIT, $0-56
	MOVQ out_base+0(FP), DI
	MOVQ out_len+8(FP), CX
	MOVQ bits_base+24(FP), SI
	VBROADCASTSS pos+48(FP), Y12
	VBROADCASTSS neg+52(FP), Y13
	VMOVDQU lanebit<>+0(SB), X14
	VMOVDQU lanebit<>+16(SB), X15
	SHRQ $3, CX
	JEQ  end

expand:
	MOVBLZX (SI), AX
	VMOVD AX, X0
	VPSHUFD $0, X0, X0 // the byte in every lane
	VPAND X14, X0, X1
	VPAND X15, X0, X2
	VPCMPEQD X14, X1, X1 // all ones where lane j's bit is set
	VPCMPEQD X15, X2, X2
	VINSERTF128 $1, X2, Y1, Y1
	VBLENDVPS Y1, Y12, Y13, Y2
	VMOVUPS Y2, (DI)
	ADDQ $32, DI
	INCQ SI
	DECQ CX
	JNE  expand

end:
	VZEROUPPER
	RET
