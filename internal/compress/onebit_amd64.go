package compress

import "rog/internal/cpuid"

var useAVX = cpuid.AVX // tests switch it off to run the Go body here

// compensateAVX is EncodeInto's first loop over len(comp)/8 whole bytes: per
// byte it widens 8 values of g and res, VADDPDs them (g the first source)
// into comp, takes the sign byte from VCMPPD GE_OQ's mask (−0 positive, NaN
// negative), and VADDSDs the masked addends into the two sums one lane at a
// time, in index order, the running sum the first source. It returns the
// sums and the count of set bits, and reads g, res and bits unchecked.
//
//go:noescape
func compensateAVX(comp []float64, g, res []float32, bits []byte) (posSum, negSum float64, posCnt int)

// residualAVX is EncodeInto's second loop over len(comp)/8 whole bytes: per
// lane it VBLENDVPDs pos or neg by x >= 0, VSUBPDs it from x and narrows the
// difference into res, which it writes unchecked.
//
//go:noescape
func residualAVX(comp []float64, res []float32, pos, neg float64)

// decodeAVX is Decode's loop over len(out)/8 whole bytes: each byte becomes
// a lane mask (broadcast, VPAND with the lane's bit, VPCMPEQD) that
// VBLENDVPSs pos or neg into out. It reads bits unchecked.
//
//go:noescape
func decodeAVX(out []float32, bits []byte, pos, neg float32)
