package nn

import (
	"math"

	"jpegact/internal/tensor"
)

// SoftmaxCrossEntropy computes the mean cross-entropy loss of logits
// (N, classes, 1, 1) against integer labels, returning the loss and the
// gradient with respect to the logits.
func SoftmaxCrossEntropy(logits *tensor.Tensor, labels []int) (float64, *tensor.Tensor) {
	n := logits.Shape.N
	classes := logits.Elems() / n
	if len(labels) != n {
		panic("nn: label count mismatch")
	}
	grad := tensor.NewLike(logits)
	var loss float64
	for i := 0; i < n; i++ {
		row := logits.Data[i*classes : (i+1)*classes]
		grow := grad.Data[i*classes : (i+1)*classes]
		// Stable softmax.
		maxv := row[0]
		for _, v := range row[1:] {
			if v > maxv {
				maxv = v
			}
		}
		var sum float64
		for j, v := range row {
			e := math.Exp(float64(v - maxv))
			grow[j] = float32(e)
			sum += e
		}
		inv := 1 / sum
		for j := range grow {
			grow[j] = float32(float64(grow[j]) * inv)
		}
		p := float64(grow[labels[i]])
		if p < 1e-12 {
			p = 1e-12
		}
		loss -= math.Log(p)
		grow[labels[i]] -= 1
	}
	grad.Scale(1 / float32(n))
	return loss / float64(n), grad
}

// Accuracy returns the top-1 accuracy of logits against labels.
func Accuracy(logits *tensor.Tensor, labels []int) float64 {
	n := logits.Shape.N
	classes := logits.Elems() / n
	correct := 0
	for i := 0; i < n; i++ {
		row := logits.Data[i*classes : (i+1)*classes]
		best := 0
		for j, v := range row {
			if v > row[best] {
				best = j
			}
		}
		if best == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(n)
}

// MSELoss computes the mean squared error loss and its gradient with
// respect to pred (the VDSR regression loss).
func MSELoss(pred, target *tensor.Tensor) (float64, *tensor.Tensor) {
	if pred.Elems() != target.Elems() {
		panic("nn: MSE size mismatch")
	}
	grad := tensor.NewLike(pred)
	var loss float64
	n := float64(pred.Elems())
	for i := range pred.Data {
		d := float64(pred.Data[i] - target.Data[i])
		loss += float64(d * d)
		grad.Data[i] = float32(2 * d / n)
	}
	return loss / n, grad
}

// SGD is stochastic gradient descent with momentum and weight decay
// (Eqn. 1 plus the standard momentum extension).
type SGD struct {
	LR          float64
	Momentum    float64
	WeightDecay float64
	velocity    map[*Param]*tensor.Tensor
}

// NewSGD builds an optimizer.
func NewSGD(lr, momentum, weightDecay float64) *SGD {
	return &SGD{LR: lr, Momentum: momentum, WeightDecay: weightDecay, velocity: map[*Param]*tensor.Tensor{}}
}

// Step applies one update to every parameter and zeroes the gradients.
func (s *SGD) Step(params []*Param) {
	for _, p := range params {
		v := s.velocity[p]
		if v == nil {
			v = tensor.NewLike(p.W)
			s.velocity[p] = v
		}
		lr := float32(s.LR)
		mom := float32(s.Momentum)
		wd := float32(s.WeightDecay)
		for i := range p.W.Data {
			g := p.Grad.Data[i] + float32(wd*p.W.Data[i])
			v.Data[i] = float32(mom*v.Data[i]) - float32(lr*g)
			p.W.Data[i] += v.Data[i]
		}
		p.ZeroGrad()
	}
}
