package cpuid

// AVX reports whether the CPU has AVX and the OS saves the YMM registers,
// probed once at start-up.
var AVX = hasAVX()

// hasAVX reports CPUID's AVX and OSXSAVE bits and XCR0's XMM and YMM bits.
func hasAVX() bool
