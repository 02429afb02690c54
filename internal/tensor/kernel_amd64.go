package tensor

import "rog/internal/cpuid"

var useAVX = cpuid.AVX // tests switch it off to run the Go body here

// addScaledRowsAVX is addScaledRowsGo with one YMM register per 8-column
// block: it starts from +0 (or loads di), then per term VBROADCASTSS val[t],
// VMULPS the row's block, VADDPS into the register, then adds bias and
// rectifies in the register before its one store. The last partial block is
// loaded and stored through a lane mask. It reads data, val and bias
// unchecked.
//
//go:noescape
func addScaledRowsAVX(di, data []float32, off []int, val, bias []float32, acc, relu bool)

// compactAVX is terms.compactGo without the bounds checks, in the vector
// body's gate although it needs no AVX: the sign bit shifted out, a ±0 term
// leaves ADC's carry clear and the count where it was.
//
//go:noescape
func compactAVX(off *[kChunk]int, val *[kChunk]float32, s []float32, at, stride, o, cols, kn int) int
