// Package buildtags splits one function across an architecture-suffixed file
// and a //go:build fallback, and carries a generator excluded from every
// build: the loader must pick the files the go command would.
package buildtags

// Sum adds xs through whichever body this build selects.
func Sum(xs []float32) float32 { return sum(xs) }
