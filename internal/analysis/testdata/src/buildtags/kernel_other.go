//go:build !amd64

package buildtags

const body = "other"

func sum(xs []float32) float32 {
	var s float32
	for i := range xs {
		s += xs[i]
	}
	return s
}
