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
	// T is the saved tensor. An offload releases it and its restore puts
	// the lossy recovered version back (or leaves it nil when only Mask is
	// kept).
	T *tensor.Tensor
	// Mask is the BRC sign mask; when non-nil, backward passes use the
	// mask and T may be nil.
	Mask []bool
	// saved is set by a layer that keeps the ref for Backward, its
	// producer or its consumer: a container hands an unsaved intermediate's
	// buffer back to the step arena once its consumer has run.
	saved bool
}

// save marks ref as read in Backward and returns it.
func (ref *ActRef) save() *ActRef {
	ref.saved = true
	return ref
}

// releaseAfter hands an intermediate's buffer back once its consumer has
// produced out: unless a layer saved it for Backward, it is the
// container's own input, or the consumer returned it. A saved ref's T is
// not even read: the offload engine may be committing it concurrently.
func releaseAfter(cur, out, in *ActRef) {
	if !cur.saved && cur != in && cur.T != out.T {
		cur.T.Release()
	}
}

// releaseGrad hands an intermediate gradient back once the child that
// consumed it has returned next: never the container's own gradient,
// which the caller owns (Residual's body and shortcut share it).
func releaseGrad(g, next, grad *tensor.Tensor) {
	if g != grad && g != next {
		g.Release()
	}
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
	root      bool // SetHooks was called on this chain: nothing encloses it
}

// NewSequential builds a sequential container.
func NewSequential(name string, layers ...Layer) *Sequential {
	return &Sequential{LayerName: name, Layers: layers}
}

// Name implements Layer.
func (s *Sequential) Name() string { return s.LayerName }

// Forward runs all layers in order. With save hooks installed (training
// mode) each child's saved refs are emitted as soon as the child has
// run, excluding the still-live tensors: the child's output, which is
// the next layer's input, and the chain's own input, which an enclosing
// block may read again — unless the chain is the root, so its input goes
// out right after the first child. An intermediate nothing saved goes
// back to the step arena as soon as the child consuming it has run.
func (s *Sequential) Forward(in *ActRef, train bool) *ActRef {
	live := in
	if s.root {
		live = nil
	}
	cur := in
	for _, l := range s.Layers {
		out := l.Forward(cur, train)
		if train && s.hooks != nil {
			emitSaved(s.hooks, l, out, live)
		}
		releaseAfter(cur, out, in)
		cur = out
	}
	return cur
}

// Backward runs all layers in reverse, announcing each leaf child's
// saved refs just before that child reads them. Each intermediate
// gradient goes back to the step arena once the child consuming it has
// returned.
func (s *Sequential) Backward(grad *tensor.Tensor) *tensor.Tensor {
	g := grad
	for i := len(s.Layers) - 1; i >= 0; i-- {
		if s.hooks != nil {
			announceNeeds(s.hooks, s.Layers[i])
		}
		next := s.Layers[i].Backward(g)
		if s.hooks != nil {
			emitGrads(s.hooks, s.Layers[i])
		}
		releaseGrad(g, next, grad)
		g = next
	}
	return g
}

func (s *Sequential) setHooks(h *Hooks, root bool) {
	s.hooks, s.root = h, root
	for _, l := range s.Layers {
		setHooks(l, h, false)
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
	sum := &ActRef{Name: r.LayerName + ".sum", Kind: compress.KindConv, T: sumOf(bodyOut.T, short.T)}
	releaseAfter(bodyOut, sum, in)
	releaseAfter(short, sum, in)
	return sum
}

// sumOf returns a + b in a new tensor of a's shape.
func sumOf(a, b *tensor.Tensor) *tensor.Tensor {
	out := a.Derive(a.Shape)
	parallel.For(len(out.Data), elemGrain, func(lo, hi int) {
		dst := out.Data[lo:hi]
		x, y := a.Data[lo:hi][:len(dst)], b.Data[lo:hi][:len(dst)]
		for i := range dst {
			dst[i] = x[i] + y[i]
		}
	})
	return out
}

// Backward implements Layer: the gradient flows unchanged into both the
// body and the shortcut (no Backward writes or releases its argument, so
// they share it), and the input gradients add.
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
	dx := sumOf(gBody, gShort)
	releaseGrad(gBody, dx, grad)
	releaseGrad(gShort, dx, grad)
	return dx
}

func (r *Residual) setHooks(h *Hooks, _ bool) {
	r.hooks = h
	setHooks(r.Body, h, false)
	if r.Shortcut != nil {
		setHooks(r.Shortcut, h, false)
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
