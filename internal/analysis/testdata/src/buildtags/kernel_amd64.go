package buildtags

const body = "amd64"

func sum(xs []float32) float32 {
	var s float32
	for _, x := range xs {
		s += x
	}
	return s
}
