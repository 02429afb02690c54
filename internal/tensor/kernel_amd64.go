package tensor

var useAVX = hasAVX() // read once; tests switch it off to run the Go body here

// hasAVX reports CPUID's AVX and OSXSAVE bits and XCR0's XMM and YMM bits.
func hasAVX() bool

// addScaledRowsAVX is addScaledRowsGo for len(di) a multiple of 8, one YMM
// register per 8-column block: per term VBROADCASTSS val[t], VMULPS the row's
// block, VADDPS into the register. It reads data and val unchecked.
//
//go:noescape
func addScaledRowsAVX(di, data []float32, off []int, val []float32)
