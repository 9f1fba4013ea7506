package nn

import (
	"fmt"
	"math"

	"jpegact/internal/compress"
	"jpegact/internal/tensor"
)

// MaxPool2 is 2×2 max pooling with stride 2. It saves its input and
// recomputes the argmax in the backward pass from the (possibly lossy)
// recovered input — so compression error can reroute gradients exactly as
// it would on hardware that stores the compressed input.
type MaxPool2 struct {
	LayerName string
	in        *ActRef
}

// NewMaxPool2 builds a 2×2/2 max-pool layer.
func NewMaxPool2(name string) *MaxPool2 { return &MaxPool2{LayerName: name} }

// Name implements Layer.
func (p *MaxPool2) Name() string { return p.LayerName }

// Params implements Layer.
func (p *MaxPool2) Params() []*Param { return nil }

// SavedRefs implements Layer.
func (p *MaxPool2) SavedRefs() []*ActRef {
	if p.in == nil {
		return nil
	}
	return []*ActRef{p.in}
}

// Forward implements Layer.
func (p *MaxPool2) Forward(in *ActRef, train bool) *ActRef {
	x := in.T
	sh := x.Shape
	ho, wo := sh.H/2, sh.W/2
	out := tensor.New(sh.N, sh.C, ho, wo)
	for n := 0; n < sh.N; n++ {
		for c := 0; c < sh.C; c++ {
			inBase := (n*sh.C + c) * sh.H * sh.W
			outBase := (n*sh.C + c) * ho * wo
			for oy := 0; oy < ho; oy++ {
				for ox := 0; ox < wo; ox++ {
					iy, ix := oy*2, ox*2
					m := x.Data[inBase+iy*sh.W+ix]
					if v := x.Data[inBase+iy*sh.W+ix+1]; v > m {
						m = v
					}
					if v := x.Data[inBase+(iy+1)*sh.W+ix]; v > m {
						m = v
					}
					if v := x.Data[inBase+(iy+1)*sh.W+ix+1]; v > m {
						m = v
					}
					out.Data[outBase+oy*wo+ox] = m
				}
			}
		}
	}
	if train {
		// Max-pool needs the input *values* to recompute argmax in the
		// backward pass, so a ReLU-produced ref may not degrade to a BRC
		// mask: upgrade it to the sparse pool/dropout kind (SFPR+ZVC or
		// DPR+CSR under Table II).
		if in.Kind == compress.KindReLUToOther || in.Kind == compress.KindConv {
			in.Kind = compress.KindPoolDropout
		}
		p.in = in
	}
	return &ActRef{Name: p.LayerName + ".out", Kind: compress.KindPoolDropout, T: out}
}

// Backward implements Layer.
func (p *MaxPool2) Backward(grad *tensor.Tensor) *tensor.Tensor {
	x := p.in.T
	sh := x.Shape
	ho, wo := sh.H/2, sh.W/2
	dx := tensor.NewLike(x)
	for n := 0; n < sh.N; n++ {
		for c := 0; c < sh.C; c++ {
			inBase := (n*sh.C + c) * sh.H * sh.W
			outBase := (n*sh.C + c) * ho * wo
			for oy := 0; oy < ho; oy++ {
				for ox := 0; ox < wo; ox++ {
					iy, ix := oy*2, ox*2
					bi := inBase + iy*sh.W + ix
					best, bestIdx := x.Data[bi], bi
					for _, idx := range [3]int{bi + 1, bi + sh.W, bi + sh.W + 1} {
						if x.Data[idx] > best {
							best, bestIdx = x.Data[idx], idx
						}
					}
					dx.Data[bestIdx] += grad.Data[outBase+oy*wo+ox]
				}
			}
		}
	}
	return dx
}

// GlobalAvgPool averages each channel plane to a single value — the
// classification head reducer. It needs only shapes in backward, so it
// saves nothing.
type GlobalAvgPool struct {
	LayerName string
	inShape   tensor.Shape
}

// NewGlobalAvgPool builds the layer.
func NewGlobalAvgPool(name string) *GlobalAvgPool { return &GlobalAvgPool{LayerName: name} }

// Name implements Layer.
func (p *GlobalAvgPool) Name() string { return p.LayerName }

// Params implements Layer.
func (p *GlobalAvgPool) Params() []*Param { return nil }

// SavedRefs implements Layer.
func (p *GlobalAvgPool) SavedRefs() []*ActRef { return nil }

// Forward implements Layer.
func (p *GlobalAvgPool) Forward(in *ActRef, _ bool) *ActRef {
	x := in.T
	sh := x.Shape
	p.inShape = sh
	out := tensor.New(sh.N, sh.C, 1, 1)
	hw := sh.H * sh.W
	inv := 1 / float32(hw)
	for nc := 0; nc < sh.N*sh.C; nc++ {
		var sum float32
		for i := 0; i < hw; i++ {
			sum += x.Data[nc*hw+i]
		}
		out.Data[nc] = sum * inv
	}
	return &ActRef{Name: p.LayerName + ".out", Kind: compress.KindConv, T: out}
}

// Backward implements Layer.
func (p *GlobalAvgPool) Backward(grad *tensor.Tensor) *tensor.Tensor {
	sh := p.inShape
	dx := tensor.New(sh.N, sh.C, sh.H, sh.W)
	hw := sh.H * sh.W
	inv := 1 / float32(hw)
	for nc := 0; nc < sh.N*sh.C; nc++ {
		g := grad.Data[nc] * inv
		for i := 0; i < hw; i++ {
			dx.Data[nc*hw+i] = g
		}
	}
	return dx
}

// Linear is a fully-connected layer over flattened (C·H·W) features.
// Its saved input is a small dense activation (excluded from JPEG by the
// paper due to size; the policy engine falls back to SFPR).
type Linear struct {
	LayerName string
	InF, OutF int
	Weight    *Param // (1, 1, OutF, InF)
	Bias      *Param // (1, OutF, 1, 1)
	in        *ActRef
	inShape   tensor.Shape
}

// NewLinear builds a linear layer with He initialization.
func NewLinear(name string, inF, outF int, rng *tensor.RNG) *Linear {
	l := &Linear{
		LayerName: name,
		InF:       inF,
		OutF:      outF,
		Weight:    NewParam(name+".W", 1, 1, outF, inF),
		Bias:      NewParam(name+".b", 1, outF, 1, 1),
	}
	l.Weight.W.FillHe(rng, inF)
	return l
}

// Name implements Layer.
func (l *Linear) Name() string { return l.LayerName }

// Params implements Layer.
func (l *Linear) Params() []*Param { return []*Param{l.Weight, l.Bias} }

// SavedRefs implements Layer.
func (l *Linear) SavedRefs() []*ActRef {
	if l.in == nil {
		return nil
	}
	return []*ActRef{l.in}
}

// Forward implements Layer.
func (l *Linear) Forward(in *ActRef, train bool) *ActRef {
	x := in.T
	n := x.Shape.N
	if x.Elems()/n != l.InF {
		panic("nn: linear input feature mismatch")
	}
	if train {
		if in.Kind == compress.KindReLUToOther {
			in.Kind = compress.KindReLUToConv // values needed, like conv
		}
		l.in = in
		l.inShape = x.Shape
	}
	out := tensor.New(n, l.OutF, 1, 1)
	// out (n × OutF) = x (n × InF) · Wᵀ (InF × OutF)
	GemmTB(n, l.InF, l.OutF, x.Data, l.Weight.W.Data, out.Data)
	for i := 0; i < n; i++ {
		for o := 0; o < l.OutF; o++ {
			out.Data[i*l.OutF+o] += l.Bias.W.Data[o]
		}
	}
	return &ActRef{Name: l.LayerName + ".out", Kind: compress.KindConv, T: out}
}

// Backward implements Layer.
func (l *Linear) Backward(grad *tensor.Tensor) *tensor.Tensor {
	x := l.in.T
	n := l.inShape.N
	if want := (tensor.Shape{N: n, C: l.OutF, H: 1, W: 1}); grad.Shape != want {
		panic(fmt.Sprintf("nn: %s backward expects gradient %v, got %v", l.LayerName, want, grad.Shape))
	}
	// ∇W += ∇yᵀ · x  (OutF×n · n×InF)
	GemmTA(l.OutF, n, l.InF, grad.Data, x.Data, l.Weight.Grad.Data)
	for i := 0; i < n; i++ {
		for o := 0; o < l.OutF; o++ {
			l.Bias.Grad.Data[o] += grad.Data[i*l.OutF+o]
		}
	}
	// ∇x = ∇y · W  (n×OutF · OutF×InF)
	dx := tensor.New(l.inShape.N, l.inShape.C, l.inShape.H, l.inShape.W)
	Gemm(n, l.OutF, l.InF, grad.Data, l.Weight.W.Data, dx.Data)
	return dx
}

// NaNGuard reports whether any value in t is NaN or Inf — the divergence
// detector the trainer uses (§VI-B observes divergence as a sudden
// accuracy collapse; activation/gradient NaNs are its proximate signal).
func NaNGuard(t *tensor.Tensor) bool {
	for _, v := range t.Data {
		f := float64(v)
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return true
		}
	}
	return false
}
