//go:build !amd64

package tensor

var useAVX = false // no vector body here: addScaledRows is addScaledRowsGo

func addScaledRowsAVX(di, data []float32, off []int, val, bias []float32, acc, relu bool) {
	addScaledRowsGo(di, data, off, val, bias, acc, relu)
}

func compactAVX(off *[kChunk]int, val *[kChunk]float32, s []float32, at, stride, o, cols, kn int) int {
	panic("unreachable")
}
