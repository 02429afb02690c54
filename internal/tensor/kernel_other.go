//go:build !amd64

package tensor

var useAVX = false // no vector body here: addScaledRows is addScaledRowsGo

func addScaledRowsAVX(di, data []float32, off []int, val []float32) {
	addScaledRowsGo(di, data, off, val)
}
