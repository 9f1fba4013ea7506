package nn

import (
	"math"
	"testing"
)

// quadStep sets grad = 2(w - target) for a scalar parameter, the convex
// test problem the optimizer must solve.
func quadStep(p *Param, target float32) {
	p.Grad.Data[0] = 2 * (p.W.Data[0] - target)
}

func optimizeQuad(t *testing.T, opt *SGD, steps int) float64 {
	t.Helper()
	p := NewParam("w", 1, 1, 1, 1)
	p.W.Data[0] = 5
	for i := 0; i < steps; i++ {
		quadStep(p, 1)
		opt.Step([]*Param{p})
	}
	return math.Abs(float64(p.W.Data[0]) - 1)
}

func TestAllOptimizersConvergeOnQuadratic(t *testing.T) {
	cases := []struct {
		name  string
		opt   *SGD
		steps int
	}{
		{"sgd", NewSGD(0.1, 0, 0), 100},
		{"sgd+momentum", NewSGD(0.05, 0.9, 0), 200},
	}
	for _, c := range cases {
		if err := optimizeQuad(t, c.opt, c.steps); err > 1e-2 {
			t.Fatalf("%s: distance to optimum %v", c.name, err)
		}
	}
}

func TestOptimizersZeroGrad(t *testing.T) {
	for _, opt := range []*SGD{NewSGD(0.1, 0, 0), NewSGD(0.1, 0.9, 1e-4)} {
		p := NewParam("w", 1, 1, 1, 2)
		p.Grad.Fill(1)
		opt.Step([]*Param{p})
		if p.Grad.MaxAbs() != 0 {
			t.Fatalf("momentum %v: gradients left set", opt.Momentum)
		}
	}
}
