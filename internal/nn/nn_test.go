package nn

import (
	"math"
	"testing"

	"jpegact/internal/compress"
	"jpegact/internal/tensor"
)

// numGradInput estimates d(sum(out*R))/dx by central differences.
func numGradInput(l Layer, x *tensor.Tensor, r *tensor.Tensor) *tensor.Tensor {
	eps := float32(1e-3)
	out := tensor.NewLike(x)
	for i := range x.Data {
		orig := x.Data[i]
		x.Data[i] = orig + eps
		fp := objective(l, x, r)
		x.Data[i] = orig - eps
		fm := objective(l, x, r)
		x.Data[i] = orig
		out.Data[i] = float32((fp - fm) / float64(2*eps))
	}
	return out
}

func objective(l Layer, x, r *tensor.Tensor) float64 {
	ref := &ActRef{Kind: compress.KindConv, T: x}
	out := l.Forward(ref, true)
	var sum float64
	for i := range out.T.Data {
		sum += float64(out.T.Data[i]) * float64(r.Data[i])
	}
	return sum
}

// analyticGradInput runs one forward and backward with upstream grad r.
func analyticGradInput(l Layer, x, r *tensor.Tensor) *tensor.Tensor {
	for _, p := range l.Params() {
		p.ZeroGrad()
	}
	ref := &ActRef{Kind: compress.KindConv, T: x}
	l.Forward(ref, true)
	return l.Backward(r.Clone())
}

func maxRelDiff(a, b *tensor.Tensor) float64 {
	var worst float64
	for i := range a.Data {
		d := math.Abs(float64(a.Data[i] - b.Data[i]))
		scale := math.Max(1, math.Max(math.Abs(float64(a.Data[i])), math.Abs(float64(b.Data[i]))))
		if d/scale > worst {
			worst = d / scale
		}
	}
	return worst
}

func randT(seed uint64, n, c, h, w int) *tensor.Tensor {
	t := tensor.New(n, c, h, w)
	t.FillNormal(tensor.NewRNG(seed), 0, 1)
	return t
}

func TestConvGradInput(t *testing.T) {
	rng := tensor.NewRNG(1)
	conv := NewConv2D("c", 2, 3, 3, ConvOpts{Pad: 1, Bias: true}, rng)
	x := randT(2, 2, 2, 5, 5)
	r := randT(3, 2, 3, 5, 5)
	got := analyticGradInput(conv, x, r)
	want := numGradInput(conv, x, r)
	if d := maxRelDiff(got, want); d > 2e-2 {
		t.Fatalf("conv input grad rel diff %v", d)
	}
}

func TestConvGradWeights(t *testing.T) {
	rng := tensor.NewRNG(4)
	conv := NewConv2D("c", 2, 2, 3, ConvOpts{Pad: 1, Bias: true}, rng)
	x := randT(5, 1, 2, 4, 4)
	r := randT(6, 1, 2, 4, 4)
	analyticGradInput(conv, x, r)
	analytic := conv.Weight.Grad.Clone()
	analyticBias := conv.Bias.Grad.Clone()

	eps := float32(1e-3)
	for i := range conv.Weight.W.Data {
		orig := conv.Weight.W.Data[i]
		conv.Weight.W.Data[i] = orig + eps
		fp := objective(conv, x, r)
		conv.Weight.W.Data[i] = orig - eps
		fm := objective(conv, x, r)
		conv.Weight.W.Data[i] = orig
		num := (fp - fm) / float64(2*eps)
		if math.Abs(num-float64(analytic.Data[i])) > 2e-2*math.Max(1, math.Abs(num)) {
			t.Fatalf("weight grad %d: analytic %v num %v", i, analytic.Data[i], num)
		}
	}
	for i := range conv.Bias.W.Data {
		orig := conv.Bias.W.Data[i]
		conv.Bias.W.Data[i] = orig + eps
		fp := objective(conv, x, r)
		conv.Bias.W.Data[i] = orig - eps
		fm := objective(conv, x, r)
		conv.Bias.W.Data[i] = orig
		num := (fp - fm) / float64(2*eps)
		if math.Abs(num-float64(analyticBias.Data[i])) > 2e-2*math.Max(1, math.Abs(num)) {
			t.Fatalf("bias grad %d: analytic %v num %v", i, analyticBias.Data[i], num)
		}
	}
}

func TestConvStride(t *testing.T) {
	rng := tensor.NewRNG(7)
	conv := NewConv2D("c", 1, 1, 3, ConvOpts{Stride: 2, Pad: 1}, rng)
	x := randT(8, 1, 1, 8, 8)
	out := conv.Forward(&ActRef{Kind: compress.KindConv, T: x}, false)
	if out.T.Shape.H != 4 || out.T.Shape.W != 4 {
		t.Fatalf("stride-2 output %v", out.T.Shape)
	}
	got := analyticGradInput(conv, x, randT(9, 1, 1, 4, 4))
	want := numGradInput(conv, x, randT(9, 1, 1, 4, 4))
	if d := maxRelDiff(got, want); d > 2e-2 {
		t.Fatalf("strided conv grad rel diff %v", d)
	}
}

func TestConvKnownValues(t *testing.T) {
	// 1x1 input, 1x1 kernel: out = w*x (+b).
	rng := tensor.NewRNG(10)
	conv := NewConv2D("c", 1, 1, 1, ConvOpts{Bias: true}, rng)
	conv.Weight.W.Data[0] = 3
	conv.Bias.W.Data[0] = 0.5
	x := tensor.FromSlice([]float32{2}, 1, 1, 1, 1)
	out := conv.Forward(&ActRef{Kind: compress.KindConv, T: x}, false)
	if out.T.Data[0] != 6.5 {
		t.Fatalf("got %v, want 6.5", out.T.Data[0])
	}
}

func TestBatchNormForwardNormalizes(t *testing.T) {
	bn := NewBatchNorm("bn", 3)
	x := randT(11, 4, 3, 6, 6)
	x.Scale(5)
	out := bn.Forward(&ActRef{Kind: compress.KindConv, T: x}, true)
	// Per-channel mean ~0, std ~1.
	sh := out.T.Shape
	hw := sh.H * sh.W
	for c := 0; c < 3; c++ {
		var sum, sq float64
		for n := 0; n < sh.N; n++ {
			base := (n*sh.C + c) * hw
			for i := 0; i < hw; i++ {
				v := float64(out.T.Data[base+i])
				sum += v
				sq += v * v
			}
		}
		m := float64(sh.N * hw)
		mean := sum / m
		std := math.Sqrt(sq/m - mean*mean)
		if math.Abs(mean) > 1e-5 || math.Abs(std-1) > 1e-3 {
			t.Fatalf("channel %d: mean %v std %v", c, mean, std)
		}
	}
}

func TestBatchNormGrad(t *testing.T) {
	bn := NewBatchNorm("bn", 2)
	bn.Gamma.W.Data[0] = 1.3
	bn.Gamma.W.Data[1] = 0.7
	bn.Beta.W.Data[0] = 0.2
	x := randT(12, 2, 2, 3, 3)
	r := randT(13, 2, 2, 3, 3)
	got := analyticGradInput(bn, x, r)
	want := numGradInput(bn, x, r)
	if d := maxRelDiff(got, want); d > 2e-2 {
		t.Fatalf("batchnorm grad rel diff %v", d)
	}
}

func TestBatchNormInferenceUsesRunningStats(t *testing.T) {
	bn := NewBatchNorm("bn", 1)
	x := randT(14, 8, 1, 4, 4)
	for i := 0; i < 20; i++ {
		bn.Forward(&ActRef{Kind: compress.KindConv, T: x}, true)
	}
	out := bn.Forward(&ActRef{Kind: compress.KindConv, T: x}, false)
	// After training on the same batch repeatedly, inference output should
	// be close to train-mode output.
	trainOut := bn.Forward(&ActRef{Kind: compress.KindConv, T: x}, true)
	if d := maxRelDiff(out.T, trainOut.T); d > 0.15 {
		t.Fatalf("inference/train mismatch %v", d)
	}
}

func TestReLUForwardBackward(t *testing.T) {
	relu := NewReLU("r")
	x := tensor.FromSlice([]float32{-1, 0, 2, -3}, 1, 1, 1, 4)
	out := relu.Forward(&ActRef{Kind: compress.KindConv, T: x}, true)
	want := []float32{0, 0, 2, 0}
	for i := range want {
		if out.T.Data[i] != want[i] {
			t.Fatalf("forward %v", out.T.Data)
		}
	}
	grad := tensor.FromSlice([]float32{1, 1, 1, 1}, 1, 1, 1, 4)
	dx := relu.Backward(grad)
	wantG := []float32{0, 0, 1, 0}
	for i := range wantG {
		if dx.Data[i] != wantG[i] {
			t.Fatalf("backward %v", dx.Data)
		}
	}
}

func TestReLUBackwardWithBRCMask(t *testing.T) {
	relu := NewReLU("r")
	x := tensor.FromSlice([]float32{-1, 5, 2, -3}, 1, 1, 1, 4)
	out := relu.Forward(&ActRef{Kind: compress.KindConv, T: x}, true)
	// Simulate the compression hook replacing the tensor with a mask.
	mask := make([]bool, 4)
	for i, v := range out.T.Data {
		mask[i] = v > 0
	}
	out.Mask = mask
	out.T = nil
	dx := relu.Backward(tensor.FromSlice([]float32{1, 1, 1, 1}, 1, 1, 1, 4))
	want := []float32{0, 1, 1, 0}
	for i := range want {
		if dx.Data[i] != want[i] {
			t.Fatalf("BRC backward %v", dx.Data)
		}
	}
}

func TestMaxPoolForwardBackward(t *testing.T) {
	p := NewMaxPool2("p")
	x := tensor.FromSlice([]float32{
		1, 2, 5, 6,
		3, 4, 7, 8,
		1, 1, 0, 0,
		1, 9, 0, -1,
	}, 1, 1, 4, 4)
	out := p.Forward(&ActRef{Kind: compress.KindConv, T: x}, true)
	want := []float32{4, 8, 9, 0}
	for i := range want {
		if out.T.Data[i] != want[i] {
			t.Fatalf("pool forward %v", out.T.Data)
		}
	}
	dx := p.Backward(tensor.FromSlice([]float32{1, 2, 3, 4}, 1, 1, 2, 2))
	// Gradient lands on the argmax positions.
	if dx.At(0, 0, 1, 1) != 1 || dx.At(0, 0, 1, 3) != 2 || dx.At(0, 0, 3, 1) != 3 || dx.At(0, 0, 2, 2) != 4 {
		t.Fatalf("pool backward %v", dx.Data)
	}
}

func TestGlobalAvgPool(t *testing.T) {
	p := NewGlobalAvgPool("g")
	x := randT(15, 2, 3, 4, 4)
	r := tensor.New(2, 3, 1, 1)
	r.FillNormal(tensor.NewRNG(16), 0, 1)
	got := analyticGradInput(p, x, r)
	want := numGradInput(p, x, r)
	if d := maxRelDiff(got, want); d > 1e-2 {
		t.Fatalf("gap grad rel diff %v", d)
	}
}

func TestLinearGrad(t *testing.T) {
	rng := tensor.NewRNG(17)
	l := NewLinear("fc", 12, 5, rng)
	x := randT(18, 3, 3, 2, 2)
	r := tensor.New(3, 5, 1, 1)
	r.FillNormal(tensor.NewRNG(19), 0, 1)
	got := analyticGradInput(l, x, r)
	want := numGradInput(l, x, r)
	if d := maxRelDiff(got, want); d > 2e-2 {
		t.Fatalf("linear grad rel diff %v", d)
	}
}

func TestDropoutTrainEval(t *testing.T) {
	rng := tensor.NewRNG(20)
	d := NewDropout("d", 0.5, rng)
	x := tensor.New(1, 1, 32, 32)
	x.Fill(2)
	out := d.Forward(&ActRef{Kind: compress.KindConv, T: x}, true)
	zeros := 0
	for _, v := range out.T.Data {
		if v == 0 {
			zeros++
		} else if v != 4 { // 2 / keep(0.5)
			t.Fatalf("kept value %v, want 4", v)
		}
	}
	if zeros < 400 || zeros > 620 {
		t.Fatalf("dropout zeros %d out of 1024", zeros)
	}
	// Eval mode: identity.
	evalOut := d.Forward(&ActRef{Kind: compress.KindConv, T: x}, false)
	if evalOut.T.Data[0] != 2 {
		t.Fatal("eval mode must be identity")
	}
	// Backward routes through the kept mask.
	g := tensor.New(1, 1, 32, 32)
	g.Fill(1)
	dx := d.Backward(g)
	for i, v := range out.T.Data {
		want := float32(0)
		if v != 0 {
			want = 2
		}
		if dx.Data[i] != want {
			t.Fatalf("dropout backward at %d: %v want %v", i, dx.Data[i], want)
		}
	}
}

func TestResidualForwardBackward(t *testing.T) {
	rng := tensor.NewRNG(21)
	body := NewSequential("body",
		NewConv2D("c1", 2, 2, 3, ConvOpts{Pad: 1}, rng),
		NewBatchNorm("bn1", 2),
	)
	res := NewResidual("res", body, nil)
	x := randT(22, 1, 2, 4, 4)
	r := randT(23, 1, 2, 4, 4)
	got := analyticGradInput(res, x, r)
	want := numGradInput(res, x, r)
	if d := maxRelDiff(got, want); d > 3e-2 {
		t.Fatalf("residual grad rel diff %v", d)
	}
}

func TestResidualWithProjection(t *testing.T) {
	rng := tensor.NewRNG(24)
	body := NewSequential("body",
		NewConv2D("c1", 2, 4, 3, ConvOpts{Stride: 2, Pad: 1}, rng),
	)
	proj := NewConv2D("proj", 2, 4, 1, ConvOpts{Stride: 2}, rng)
	res := NewResidual("res", body, proj)
	x := randT(25, 1, 2, 4, 4)
	out := res.Forward(&ActRef{Kind: compress.KindConv, T: x}, true)
	if out.T.Shape != (tensor.Shape{N: 1, C: 4, H: 2, W: 2}) {
		t.Fatalf("projection shape %v", out.T.Shape)
	}
	if out.Kind != compress.KindConv {
		t.Fatal("sum output must be a dense conv/sum kind")
	}
}

func TestSequentialCollectsRefsAndParams(t *testing.T) {
	rng := tensor.NewRNG(26)
	seq := NewSequential("net",
		NewConv2D("c1", 1, 2, 3, ConvOpts{Pad: 1}, rng),
		NewBatchNorm("bn1", 2),
		NewReLU("r1"),
		NewConv2D("c2", 2, 2, 3, ConvOpts{Pad: 1}, rng),
	)
	x := randT(27, 1, 1, 8, 8)
	seq.Forward(&ActRef{Kind: compress.KindConv, T: x}, true)
	refs := seq.SavedRefs()
	// c1 saves input, bn1 saves conv out, r1 saves relu out, c2 saves its
	// input which IS r1's output ref (shared).
	if len(refs) != 4 {
		t.Fatalf("got %d refs", len(refs))
	}
	if refs[2] != refs[3] {
		t.Fatal("ReLU output and next conv input must share one ActRef")
	}
	if refs[2].Kind != compress.KindReLUToConv {
		t.Fatalf("shared ref kind = %v, want ReLU(to conv)", refs[2].Kind)
	}
	if len(seq.Params()) != 2+2 { // two conv weights (no bias), gamma+beta
		t.Fatalf("params %d", len(seq.Params()))
	}
}

func TestSoftmaxCrossEntropy(t *testing.T) {
	logits := tensor.FromSlice([]float32{2, 0, -1, 0, 3, 0}, 2, 3, 1, 1)
	loss, grad := SoftmaxCrossEntropy(logits, []int{0, 1})
	if loss < 0 || loss > 1 {
		t.Fatalf("loss %v out of expected band", loss)
	}
	// Gradient rows sum to 0.
	for i := 0; i < 2; i++ {
		var sum float64
		for j := 0; j < 3; j++ {
			sum += float64(grad.Data[i*3+j])
		}
		if math.Abs(sum) > 1e-6 {
			t.Fatalf("grad row %d sums to %v", i, sum)
		}
	}
	// Numerical check.
	eps := float32(1e-3)
	for i := range logits.Data {
		orig := logits.Data[i]
		logits.Data[i] = orig + eps
		lp, _ := SoftmaxCrossEntropy(logits, []int{0, 1})
		logits.Data[i] = orig - eps
		lm, _ := SoftmaxCrossEntropy(logits, []int{0, 1})
		logits.Data[i] = orig
		num := (lp - lm) / float64(2*eps)
		if math.Abs(num-float64(grad.Data[i])) > 1e-3 {
			t.Fatalf("CE grad %d: %v vs %v", i, grad.Data[i], num)
		}
	}
}

func TestAccuracy(t *testing.T) {
	logits := tensor.FromSlice([]float32{2, 0, 0, 1, 0, 3}, 2, 3, 1, 1)
	if got := Accuracy(logits, []int{0, 2}); got != 1 {
		t.Fatalf("accuracy %v", got)
	}
	if got := Accuracy(logits, []int{1, 2}); got != 0.5 {
		t.Fatalf("accuracy %v", got)
	}
}

func TestMSELossGrad(t *testing.T) {
	pred := tensor.FromSlice([]float32{1, 2}, 1, 1, 1, 2)
	target := tensor.FromSlice([]float32{0, 4}, 1, 1, 1, 2)
	loss, grad := MSELoss(pred, target)
	if math.Abs(loss-2.5) > 1e-9 { // (1 + 4)/2
		t.Fatalf("loss %v", loss)
	}
	if grad.Data[0] != 1 || grad.Data[1] != -2 {
		t.Fatalf("grad %v", grad.Data)
	}
}

func TestSGDStep(t *testing.T) {
	p := NewParam("w", 1, 1, 1, 2)
	p.W.Data[0] = 1
	p.W.Data[1] = -1
	p.Grad.Data[0] = 0.5
	p.Grad.Data[1] = -0.5
	opt := NewSGD(0.1, 0, 0)
	opt.Step([]*Param{p})
	if math.Abs(float64(p.W.Data[0]-0.95)) > 1e-6 || math.Abs(float64(p.W.Data[1]+0.95)) > 1e-6 {
		t.Fatalf("weights %v", p.W.Data)
	}
	if p.Grad.Data[0] != 0 {
		t.Fatal("grad must be zeroed")
	}
	// Momentum accumulates.
	p.Grad.Data[0] = 1
	opt2 := NewSGD(0.1, 0.9, 0)
	opt2.Step([]*Param{p})
	w1 := p.W.Data[0]
	p.Grad.Data[0] = 0 // no new gradient; momentum should still move it
	opt2.Step([]*Param{p})
	if p.W.Data[0] >= w1 {
		t.Fatal("momentum must continue moving the weight")
	}
}

func TestSGDWeightDecay(t *testing.T) {
	p := NewParam("w", 1, 1, 1, 1)
	p.W.Data[0] = 10
	opt := NewSGD(0.1, 0, 0.1)
	opt.Step([]*Param{p})
	if math.Abs(float64(p.W.Data[0]-9.9)) > 1e-5 {
		t.Fatalf("weight decay: %v", p.W.Data[0])
	}
}

func TestNaNGuard(t *testing.T) {
	x := tensor.New(1, 1, 1, 3)
	if NaNGuard(x) {
		t.Fatal("clean tensor flagged")
	}
	x.Data[1] = float32(math.NaN())
	if !NaNGuard(x) {
		t.Fatal("NaN not detected")
	}
	x.Data[1] = float32(math.Inf(1))
	if !NaNGuard(x) {
		t.Fatal("Inf not detected")
	}
}

func TestGemmAgainstNaive(t *testing.T) {
	rng := tensor.NewRNG(30)
	m, k, n := 4, 5, 6
	a := make([]float32, m*k)
	b := make([]float32, k*n)
	for i := range a {
		a[i] = float32(rng.Norm())
	}
	for i := range b {
		b[i] = float32(rng.Norm())
	}
	want := make([]float32, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for kk := 0; kk < k; kk++ {
				s += a[i*k+kk] * b[kk*n+j]
			}
			want[i*n+j] = s
		}
	}
	got := make([]float32, m*n)
	Gemm(m, k, n, a, b, got)
	for i := range want {
		if math.Abs(float64(got[i]-want[i])) > 1e-4 {
			t.Fatalf("Gemm[%d] = %v want %v", i, got[i], want[i])
		}
	}
	// GemmTA: Aᵀ stored as K×M.
	at := make([]float32, k*m)
	for i := 0; i < m; i++ {
		for kk := 0; kk < k; kk++ {
			at[kk*m+i] = a[i*k+kk]
		}
	}
	got2 := make([]float32, m*n)
	GemmTA(m, k, n, at, b, got2)
	for i := range want {
		if math.Abs(float64(got2[i]-want[i])) > 1e-4 {
			t.Fatalf("GemmTA[%d] = %v want %v", i, got2[i], want[i])
		}
	}
	// GemmTB: Bᵀ stored as N×K.
	bt := make([]float32, n*k)
	for kk := 0; kk < k; kk++ {
		for j := 0; j < n; j++ {
			bt[j*k+kk] = b[kk*n+j]
		}
	}
	got3 := make([]float32, m*n)
	GemmTB(m, k, n, a, bt, got3)
	for i := range want {
		if math.Abs(float64(got3[i]-want[i])) > 1e-4 {
			t.Fatalf("GemmTB[%d] = %v want %v", i, got3[i], want[i])
		}
	}
}

func TestTrainingReducesLossOnToyProblem(t *testing.T) {
	// A 2-class toy problem must be learnable by a tiny CNR network.
	rng := tensor.NewRNG(31)
	net := NewSequential("toy",
		NewConv2D("c1", 1, 4, 3, ConvOpts{Pad: 1}, rng),
		NewBatchNorm("bn1", 4),
		NewReLU("r1"),
		NewGlobalAvgPool("gap"),
		NewLinear("fc", 4, 2, rng),
	)
	opt := NewSGD(0.1, 0.9, 1e-4)
	dataRng := tensor.NewRNG(32)
	mkBatch := func() (*tensor.Tensor, []int) {
		x := tensor.New(8, 1, 8, 8)
		labels := make([]int, 8)
		for i := 0; i < 8; i++ {
			cl := i % 2
			labels[i] = cl
			mean := float64(cl)*2 - 1
			for j := 0; j < 64; j++ {
				x.Data[i*64+j] = float32(mean + 0.5*dataRng.Norm())
			}
		}
		return x, labels
	}
	var first, last float64
	for step := 0; step < 30; step++ {
		x, labels := mkBatch()
		out := net.Forward(&ActRef{Kind: compress.KindConv, T: x}, true)
		loss, grad := SoftmaxCrossEntropy(out.T, labels)
		if step == 0 {
			first = loss
		}
		last = loss
		net.Backward(grad)
		opt.Step(net.Params())
	}
	if last > first*0.5 {
		t.Fatalf("loss did not drop: %v -> %v", first, last)
	}
	x, labels := mkBatch()
	out := net.Forward(&ActRef{Kind: compress.KindConv, T: x}, false)
	if acc := Accuracy(out.T, labels); acc < 0.9 {
		t.Fatalf("toy accuracy %v", acc)
	}
}

func TestConvIsLinearInInput(t *testing.T) {
	// Property: conv(a + b) = conv(a) + conv(b) for bias-free convs.
	rng := tensor.NewRNG(88)
	c := NewConv2D("c", 2, 3, 3, ConvOpts{Pad: 1}, rng)
	a := randT(89, 1, 2, 6, 6)
	b := randT(90, 1, 2, 6, 6)
	sum := a.Clone()
	sum.Add(b)
	ya := c.Forward(&ActRef{Kind: compress.KindConv, T: a}, false)
	yb := c.Forward(&ActRef{Kind: compress.KindConv, T: b}, false)
	ys := c.Forward(&ActRef{Kind: compress.KindConv, T: sum}, false)
	want := ya.T.Clone()
	want.Add(yb.T)
	if d := maxRelDiff(ys.T, want); d > 1e-4 {
		t.Fatalf("conv not linear: %v", d)
	}
}
