// Package nn is a from-scratch CPU CNN training library: NCHW tensors,
// im2col convolution, batch normalization, ReLU, pooling, dropout,
// residual blocks, linear heads, losses and SGD. It substitutes for the
// GPU framework (Chainer) the paper evaluates on (DESIGN.md substitution
// 1) while keeping the property JPEG-ACT needs: every activation that
// must be *saved* for the backward pass is exposed through an ActRef so
// the training loop can replace it with its lossy compressed-recovered
// version, exactly like the paper's functional simulation.
//
// A product that feeds an add or subtract is written float64(a*b) or
// float32(a*b) throughout the package: an explicit conversion rounds, so a
// toolchain that fuses x*y+z (arm64) computes the bits amd64 does. `make
// ci` greps the arm64 compile of the package for fused multiply-adds.
package nn

import (
	"fmt"

	"jpegact/internal/compress"
	"jpegact/internal/freqdomain"
	"jpegact/internal/parallel"
	"jpegact/internal/tensor"
)

// ActRef is one saved activation: the tensor a layer will consult during
// its backward pass. Layers that share an activation (a ReLU output that
// is also the next conv's input) share the same ActRef, so compression is
// applied once and seen by all consumers, as in a real framework's
// memory pool.
type ActRef struct {
	Name string
	Kind compress.Kind
	// T is the saved tensor. The compression hook may replace it with the
	// lossy recovered version (or nil it when only Mask is kept).
	T *tensor.Tensor
	// Mask is the BRC sign mask; when non-nil, backward passes use the
	// mask and T may be nil.
	Mask []bool
	// Coef is the decoded quantized-coefficient plane when the restore
	// was served by the frequency-domain path; T stays nil and capable
	// consumers (see CoefficientConsumer) read the plane directly. Other
	// consumers never see one: the trainer only plans coefficient
	// restores for refs whose every reader opted in.
	Coef *freqdomain.Plane
	// CompressedBytes/OriginalBytes are filled by the compression hook
	// for footprint accounting; zero until compressed.
	CompressedBytes int
	OriginalBytes   int
}

// Param is one learnable parameter with its accumulated gradient.
type Param struct {
	Name string
	W    *tensor.Tensor
	Grad *tensor.Tensor
}

// NewParam allocates a parameter and matching zero gradient.
func NewParam(name string, n, c, h, w int) *Param {
	return &Param{Name: name, W: tensor.New(n, c, h, w), Grad: tensor.New(n, c, h, w)}
}

// ZeroGrad clears the accumulated gradient.
func (p *Param) ZeroGrad() { p.Grad.Zero() }

// Layer is one differentiable network stage. Forward consumes the
// producer's ActRef (layers that need the input for backward keep the
// ref) and returns a new ActRef for its output. Backward consumes the
// output gradient and returns the input gradient, reading any saved
// activations through the (possibly compressed) refs.
type Layer interface {
	Name() string
	Forward(in *ActRef, train bool) *ActRef
	Backward(grad *tensor.Tensor) *tensor.Tensor
	Params() []*Param
	// SavedRefs lists the activation refs this layer will read in
	// Backward. The trainer dedups shared refs before compressing.
	SavedRefs() []*ActRef
}

// Sequential chains layers.
type Sequential struct {
	LayerName string
	Layers    []Layer
	hooks     *Hooks
}

// NewSequential builds a sequential container.
func NewSequential(name string, layers ...Layer) *Sequential {
	return &Sequential{LayerName: name, Layers: layers}
}

// Name implements Layer.
func (s *Sequential) Name() string { return s.LayerName }

// Forward runs all layers in order. With save hooks installed (training
// mode) each child's saved refs are emitted as soon as the child has
// run, excluding the two still-live tensors: the chain's own input
// (an enclosing block may read it again) and the child's output, which
// is the next layer's input.
func (s *Sequential) Forward(in *ActRef, train bool) *ActRef {
	cur := in
	for _, l := range s.Layers {
		out := l.Forward(cur, train)
		if train && s.hooks != nil {
			emitSaved(s.hooks, l, out, in)
		}
		cur = out
	}
	return cur
}

// Backward runs all layers in reverse, announcing each leaf child's
// saved refs just before that child reads them.
func (s *Sequential) Backward(grad *tensor.Tensor) *tensor.Tensor {
	for i := len(s.Layers) - 1; i >= 0; i-- {
		if s.hooks != nil {
			announceNeeds(s.hooks, s.Layers[i])
		}
		grad = s.Layers[i].Backward(grad)
		if s.hooks != nil {
			emitGrads(s.hooks, s.Layers[i])
		}
	}
	return grad
}

func (s *Sequential) setHooks(h *Hooks) {
	s.hooks = h
	for _, l := range s.Layers {
		SetHooks(l, h)
	}
}

func (s *Sequential) hooked() bool { return s.hooks != nil }

// Params collects all parameters.
func (s *Sequential) Params() []*Param {
	var out []*Param
	for _, l := range s.Layers {
		out = append(out, l.Params()...)
	}
	return out
}

// SavedRefs collects all saved refs.
func (s *Sequential) SavedRefs() []*ActRef {
	var out []*ActRef
	for _, l := range s.Layers {
		out = append(out, l.SavedRefs()...)
	}
	return out
}

// Add appends layers.
func (s *Sequential) Add(layers ...Layer) { s.Layers = append(s.Layers, layers...) }

// Residual computes body(x) + shortcut(x); shortcut is identity when nil
// (the ResNet basic/bottleneck block glue). The sum output is a dense
// "sum" activation in the paper's taxonomy.
type Residual struct {
	LayerName string
	Body      Layer
	Shortcut  Layer // nil = identity
	hooks     *Hooks
}

// NewResidual builds a residual block.
func NewResidual(name string, body, shortcut Layer) *Residual {
	return &Residual{LayerName: name, Body: body, Shortcut: shortcut}
}

// Name implements Layer.
func (r *Residual) Name() string { return r.LayerName }

// Forward implements Layer.
func (r *Residual) Forward(in *ActRef, train bool) *ActRef {
	bodyOut := r.Body.Forward(in, train)
	short := in
	if r.Shortcut != nil {
		short = r.Shortcut.Forward(in, train)
	}
	if bodyOut.T.Shape != short.T.Shape {
		panic(fmt.Sprintf("nn: residual shape mismatch %v vs %v", bodyOut.T.Shape, short.T.Shape))
	}
	return &ActRef{Name: r.LayerName + ".sum", Kind: compress.KindConv, T: sumOf(bodyOut.T, short.T)}
}

// sumOf returns a + b in a new tensor of a's shape.
func sumOf(a, b *tensor.Tensor) *tensor.Tensor {
	out := tensor.NewLike(a)
	parallel.For(len(out.Data), elemGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out.Data[i] = a.Data[i] + b.Data[i]
		}
	})
	return out
}

// Backward implements Layer: the gradient flows unchanged into both the
// body and the shortcut (no Backward writes its argument, so they share
// it), and the input gradients add.
func (r *Residual) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if r.hooks != nil {
		announceNeeds(r.hooks, r.Body)
	}
	gBody := r.Body.Backward(grad)
	if r.hooks != nil {
		emitGrads(r.hooks, r.Body)
	}
	gShort := grad
	if r.Shortcut != nil {
		if r.hooks != nil {
			announceNeeds(r.hooks, r.Shortcut)
		}
		gShort = r.Shortcut.Backward(grad)
		if r.hooks != nil {
			emitGrads(r.hooks, r.Shortcut)
		}
	}
	return sumOf(gBody, gShort)
}

func (r *Residual) setHooks(h *Hooks) {
	r.hooks = h
	SetHooks(r.Body, h)
	if r.Shortcut != nil {
		SetHooks(r.Shortcut, h)
	}
}

func (r *Residual) hooked() bool { return r.hooks != nil }

// Params implements Layer.
func (r *Residual) Params() []*Param {
	out := r.Body.Params()
	if r.Shortcut != nil {
		out = append(out, r.Shortcut.Params()...)
	}
	return out
}

// SavedRefs implements Layer.
func (r *Residual) SavedRefs() []*ActRef {
	out := r.Body.SavedRefs()
	if r.Shortcut != nil {
		out = append(out, r.Shortcut.SavedRefs()...)
	}
	return out
}
