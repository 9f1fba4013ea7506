package models

import (
	"testing"

	"jpegact/internal/compress"
	"jpegact/internal/nn"
	"jpegact/internal/tensor"
)

func forward(t *testing.T, m *Model, train bool) *nn.ActRef {
	t.Helper()
	r := tensor.NewRNG(99)
	x := tensor.New(2, m.InC, m.H, m.W)
	x.FillNormal(r, 0, 1)
	return m.Net.Forward(&nn.ActRef{Kind: compress.KindConv, T: x}, train)
}

func TestAllModelsForwardShapes(t *testing.T) {
	for _, m := range All(Scale{}, 4, 1) {
		out := forward(t, m, false)
		switch m.Task {
		case Classify:
			want := tensor.Shape{N: 2, C: 4, H: 1, W: 1}
			if out.T.Shape != want {
				t.Fatalf("%s output %v, want %v", m.Name, out.T.Shape, want)
			}
		case SuperRes:
			want := tensor.Shape{N: 2, C: 1, H: m.H, W: m.W}
			if out.T.Shape != want {
				t.Fatalf("%s output %v, want %v", m.Name, out.T.Shape, want)
			}
		}
		if nn.NaNGuard(out.T) {
			t.Fatalf("%s produced NaN at init", m.Name)
		}
	}
}

func TestAllModelsBackward(t *testing.T) {
	for _, m := range All(Scale{}, 4, 2) {
		out := forward(t, m, true)
		g := tensor.NewLike(out.T)
		g.FillNormal(tensor.NewRNG(5), 0, 0.1)
		dx := m.Net.Backward(g)
		if dx.Shape.C != m.InC || dx.Shape.H != m.H {
			t.Fatalf("%s input grad shape %v", m.Name, dx.Shape)
		}
		if nn.NaNGuard(dx) {
			t.Fatalf("%s backward produced NaN", m.Name)
		}
		// Every parameter must have received some gradient signal.
		gotGrad := false
		for _, p := range m.Net.Params() {
			if p.Grad.MaxAbs() > 0 {
				gotGrad = true
				break
			}
		}
		if !gotGrad {
			t.Fatalf("%s: no parameter gradients", m.Name)
		}
	}
}

func TestDropoutFlags(t *testing.T) {
	ms := All(Scale{}, 4, 3)
	byName := map[string]*Model{}
	for _, m := range ms {
		byName[m.Name] = m
	}
	if !byName["VGG"].HasDropout || !byName["WRN"].HasDropout {
		t.Fatal("VGG and WRN must have dropout")
	}
	for _, n := range []string{"ResNet18", "ResNet50", "ResNet101", "VDSR"} {
		if byName[n].HasDropout {
			t.Fatalf("%s must not have dropout", n)
		}
	}
}

func TestDepthOrdering(t *testing.T) {
	ms := All(Scale{}, 4, 4)
	byName := map[string]*Model{}
	for _, m := range ms {
		byName[m.Name] = m
	}
	if byName["ResNet101"].ParamCount() <= byName["ResNet50"].ParamCount() {
		t.Fatal("ResNet101 must be larger than ResNet50")
	}
	if byName["WRN"].ParamCount() <= byName["ResNet18"].ParamCount() {
		t.Fatal("WRN must be wider than ResNet18")
	}
}

func TestSavedRefsIncludeAllKinds(t *testing.T) {
	// VGG (pool+dropout) and ResNet (sums) must jointly expose every
	// activation kind of Table II.
	kinds := map[compress.Kind]bool{}
	for _, m := range []*Model{VGG(Scale{}, 4, tensor.NewRNG(7)), ResNet50(Scale{}, 4, tensor.NewRNG(8))} {
		forward(t, m, true)
		seen := map[*nn.ActRef]bool{}
		for _, ref := range m.Net.SavedRefs() {
			if !seen[ref] {
				seen[ref] = true
				kinds[ref.Kind] = true
			}
		}
	}
	for _, k := range []compress.Kind{compress.KindConv, compress.KindReLUToConv, compress.KindPoolDropout} {
		if !kinds[k] {
			t.Fatalf("kind %v never produced", k)
		}
	}
}

func TestVDSRGlobalSkip(t *testing.T) {
	// Zeroing the final conv makes the body contribute nothing, so the
	// global residual skip must pass the input through exactly.
	m := VDSR(Scale{}, tensor.NewRNG(9))
	for _, p := range m.Net.Params() {
		if p.Name == "VDSR.out.W" || p.Name == "VDSR.out.b" {
			p.W.Zero()
		}
	}
	r := tensor.NewRNG(10)
	x := tensor.New(1, 1, m.H, m.W)
	x.FillNormal(r, 0, 1)
	out := m.Net.Forward(&nn.ActRef{Kind: compress.KindConv, T: x}, false)
	if e := tensor.MSE(x, out.T); e != 0 {
		t.Fatalf("VDSR skip not identity with zero body: MSE %v", e)
	}
}

// ParamCount returns the number of learnable scalars in the model.
func (m *Model) ParamCount() int {
	total := 0
	for _, p := range m.Net.Params() {
		total += p.W.Elems()
	}
	return total
}
