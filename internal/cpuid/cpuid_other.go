//go:build !amd64

package cpuid

// AVX is false off amd64: there is no vector body to run.
var AVX = false
