// Package cpuid holds the one CPU feature probe the vector bodies share:
// tensor's matmul kernels and compress's row codec both run their AVX
// assembly only where AVX says they may.
package cpuid
