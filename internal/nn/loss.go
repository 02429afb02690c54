package nn

import (
	"math"

	"rog/internal/tensor"
)

// SoftmaxCrossEntropy computes the softmax cross-entropy loss for integer
// class labels and its gradient with respect to the logits, into a fresh
// matrix: SoftmaxCrossEntropyInto with no scratch.
func SoftmaxCrossEntropy(logits *tensor.Matrix, labels []int) (loss float64, grad *tensor.Matrix) {
	return SoftmaxCrossEntropyInto(nil, logits, labels)
}

// SoftmaxCrossEntropyInto computes the softmax cross-entropy loss for integer
// class labels and its gradient with respect to the logits.
//
// logits is batch×classes; labels holds one class index per batch row.
// The returned gradient is (softmax − onehot)/batch, ready to feed to the
// last layer's Backward. It is dst reshaped when dst has the room (nil
// never does), so the caller that passes its last gradient back in owns it
// until that next call.
func SoftmaxCrossEntropyInto(dst, logits *tensor.Matrix, labels []int) (loss float64, grad *tensor.Matrix) {
	if len(labels) != logits.Rows {
		panic("nn: label count != batch size")
	}
	grad = sized(dst, logits.Rows, logits.Cols)
	for i := 0; i < logits.Rows; i++ {
		row := logits.Row(i)
		g := grad.Row(i)
		// Numerically stable softmax.
		mx := row[0]
		for _, v := range row {
			if v > mx {
				mx = v
			}
		}
		var sum float64
		for j, v := range row {
			e := math.Exp(float64(v - mx))
			g[j] = float32(e)
			sum += e
		}
		inv := 1.0 / sum
		for j := range g {
			g[j] = float32(float64(g[j]) * inv)
		}
		p := float64(g[labels[i]])
		if p < 1e-12 {
			p = 1e-12
		}
		loss += -math.Log(p)
		g[labels[i]] -= 1
	}
	scale := float32(1.0 / float64(logits.Rows))
	grad.Scale(scale)
	return loss / float64(logits.Rows), grad
}

// MSEInto computes the mean-squared-error loss ½·mean((pred−target)²) and
// its gradient (pred−target)/n with respect to pred, into dst as
// SoftmaxCrossEntropyInto does.
func MSEInto(dst, pred, target *tensor.Matrix) (loss float64, grad *tensor.Matrix) {
	if pred.Rows != target.Rows || pred.Cols != target.Cols {
		panic("nn: MSE shape mismatch")
	}
	grad = sized(dst, pred.Rows, pred.Cols)
	n := float64(len(pred.Data))
	for i, p := range pred.Data {
		d := float64(p) - float64(target.Data[i])
		loss += d * d
		grad.Data[i] = float32(d / n)
	}
	return loss / (2 * n), grad
}

// argmaxRow returns the index of the first largest value of row (0 for an
// empty row; a NaN wins only at index 0). The maximum so far stays in a
// register rather than being reloaded through its index.
func argmaxRow(row []float32) int {
	if len(row) == 0 {
		return 0
	}
	best, top := 0, row[0]
	for j, v := range row {
		if v > top {
			best, top = j, v
		}
	}
	return best
}

// Accuracy returns the fraction of rows whose argmax matches the label.
func Accuracy(logits *tensor.Matrix, labels []int) float64 {
	if logits.Rows == 0 {
		return 0
	}
	correct := 0
	for i := 0; i < logits.Rows; i++ {
		if argmaxRow(logits.Row(i)) == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(labels))
}
