//go:build !amd64

package compress

var useAVX = false // no vector body here: the codec is its Go loops

func compensateAVX(comp []float64, g, res []float32, bits []byte) (posSum, negSum float64, posCnt int) {
	panic("unreachable")
}

func residualAVX(comp []float64, res []float32, pos, neg float64) { panic("unreachable") }

func decodeAVX(out []float32, bits []byte, pos, neg float32) { panic("unreachable") }
