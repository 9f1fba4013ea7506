package nn

import (
	"math"
	"testing"

	"jpegact/internal/compress"
	"jpegact/internal/parallel"
	"jpegact/internal/tensor"
)

// refBatchNorm is batch norm one channel at a time with one chain per
// reduction: the order every grouping of channels must reproduce. It
// returns the training forward's output, the running statistics after
// it, and backward's dx, ∂γ and ∂β for grad.
func refBatchNorm(x, grad *tensor.Tensor, eps, momentum float64) (out, dx *tensor.Tensor, runMean, runVar, dGamma, dBeta []float32) {
	sh := x.Shape
	hw := sh.H * sh.W
	m := float64(sh.N * hw)
	out, dx = tensor.NewLike(x), tensor.NewLike(x)
	runMean, runVar = make([]float32, sh.C), make([]float32, sh.C)
	dGamma, dBeta = make([]float32, sh.C), make([]float32, sh.C)
	plane := func(t *tensor.Tensor, n, c int) []float32 { return t.Data[(n*sh.C+c)*hw:][:hw] }
	for c := 0; c < sh.C; c++ {
		var sum, sq float64
		for n := 0; n < sh.N; n++ {
			for _, v := range plane(x, n, c) {
				sum += float64(v)
			}
		}
		mean := sum / m
		for n := 0; n < sh.N; n++ {
			for _, v := range plane(x, n, c) {
				d := float64(v) - mean
				sq += float64(d * d)
			}
		}
		variance := sq / m
		invStd := 1 / math.Sqrt(variance+eps)
		runMean[c] = float32(float64((1-momentum)*0) + float64(momentum*mean))
		runVar[c] = float32(float64((1-momentum)*1) + float64(momentum*variance))
		g, bt := 1.0, 0.0 // a fresh layer's γ and β
		for n := 0; n < sh.N; n++ {
			dst := plane(out, n, c)
			for i, v := range plane(x, n, c) {
				dst[i] = float32(float64((float64(v)-mean)*invStd*g) + bt)
			}
		}

		mean32, invStd32 := float64(float32(mean)), float64(float32(invStd))
		var sumDy, sumDyXhat float64
		for n := 0; n < sh.N; n++ {
			gp := plane(grad, n, c)
			for i, v := range plane(x, n, c) {
				dy := float64(gp[i])
				sumDy += dy
				sumDyXhat += float64(dy * ((float64(v) - mean32) * invStd32))
			}
		}
		dBeta[c], dGamma[c] = float32(sumDy), float32(sumDyXhat)
		for n := 0; n < sh.N; n++ {
			gp, dst := plane(grad, n, c), plane(dx, n, c)
			for i, v := range plane(x, n, c) {
				xh := (float64(v) - mean32) * invStd32
				dst[i] = float32(g * invStd32 * (float64(gp[i]) - sumDy/m - xh*sumDyXhat/m))
			}
		}
	}
	return out, dx, runMean, runVar, dGamma, dBeta
}

// TestBatchNormChannelGroupsBitIdentical holds batch norm, whose forward
// statistics reduce four channels interleaved with a per-channel tail, to
// the one-channel-at-a-time reference on Float32bits, forward and
// backward: channel counts that leave every tail length, at one, two and
// three workers (the grain follows the worker count, so the grouping does
// too).
func TestBatchNormChannelGroupsBitIdentical(t *testing.T) {
	same := func(a, b []float32) bool {
		for i := range a {
			if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
				return false
			}
		}
		return len(a) == len(b)
	}
	r := tensor.NewRNG(21)
	for _, c := range []int{1, 2, 3, 4, 5, 7, 8, 9, 13, 16} {
		x := tensor.New(3, c, 5, 6)
		x.FillNormal(r, 0.3, 1.7)
		grad := tensor.NewLike(x)
		grad.FillNormal(r, 0, 1)
		out, dx, runMean, runVar, dGamma, dBeta := refBatchNorm(x, grad, 1e-5, 0.1)
		for _, workers := range []int{1, 2, 3} {
			prev := parallel.SetWorkers(workers)
			bn := NewBatchNorm("bn", c)
			got := bn.Forward(&ActRef{Kind: compress.KindConv, T: x}, true).T
			gotDx := bn.Backward(grad)
			parallel.SetWorkers(prev)
			for _, chk := range []struct {
				name      string
				got, want []float32
			}{
				{"out", got.Data, out.Data}, {"dx", gotDx.Data, dx.Data},
				{"running mean", bn.RunningMean, runMean}, {"running var", bn.RunningVar, runVar},
				{"∂γ", bn.Gamma.Grad.Data, dGamma}, {"∂β", bn.Beta.Grad.Data, dBeta},
			} {
				if !same(chk.got, chk.want) {
					t.Errorf("C=%d at %d workers: %s differs from the per-channel reference", c, workers, chk.name)
				}
			}
		}
	}
}
