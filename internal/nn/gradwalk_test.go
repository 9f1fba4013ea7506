package nn

import (
	"testing"

	"jpegact/internal/tensor"
)

func gradwalkNet(seed uint64) (*Sequential, *tensor.RNG) {
	rng := tensor.NewRNG(seed)
	net := NewSequential("net",
		NewConv2D("c1", 3, 4, 3, ConvOpts{Pad: 1}, rng),
		NewBatchNorm("bn1", 4),
		NewReLU("r1"),
		NewDropout("drop", 0.3, rng),
		NewResidual("res",
			NewSequential("body",
				NewConv2D("c2", 4, 4, 3, ConvOpts{Pad: 1}, rng),
				NewBatchNorm("bn2", 4),
			),
			nil,
		),
	)
	return net, rng
}

// TestFlattenImportRoundtrip: flatten → import(scale 1) must restore
// every gradient bit-exactly, in Params() order, across two replicas
// of the same architecture.
func TestFlattenImportRoundtrip(t *testing.T) {
	net, rng := gradwalkNet(21)
	for _, p := range net.Params() {
		p.Grad.FillNormal(rng, 0, 1)
	}
	n := GradSize(net)
	if n == 0 {
		t.Fatal("GradSize = 0")
	}
	flat := make([]float32, n)
	if got := FlattenGrads(net, flat); got != n {
		t.Fatalf("FlattenGrads wrote %d elements, GradSize says %d", got, n)
	}

	// A second replica of the same architecture must accept the vector
	// and end with element-wise identical gradients.
	other, _ := gradwalkNet(21)
	if GradSize(other) != n {
		t.Fatal("replicas of one constructor disagree on GradSize")
	}
	ImportGrads(other, flat, 1)
	pa, pb := net.Params(), other.Params()
	for i := range pa {
		for j := range pa[i].Grad.Data {
			if pa[i].Grad.Data[j] != pb[i].Grad.Data[j] {
				t.Fatalf("param %d (%s) grad element %d differs after import", i, pa[i].Name, j)
			}
		}
	}
}

// TestImportGradsScale: the scale is applied as exactly one float32
// multiply per element.
func TestImportGradsScale(t *testing.T) {
	net, rng := gradwalkNet(22)
	for _, p := range net.Params() {
		p.Grad.FillNormal(rng, 0, 1)
	}
	flat := make([]float32, GradSize(net))
	FlattenGrads(net, flat)
	scale := float32(1) / 3
	ImportGrads(net, flat, scale)
	off := 0
	for _, p := range net.Params() {
		for i := range p.Grad.Data {
			if want := flat[off+i] * scale; p.Grad.Data[i] != want {
				t.Fatalf("param %s element %d: %v, want %v", p.Name, i, p.Grad.Data[i], want)
			}
		}
		off += p.Grad.Elems()
	}
}

// TestImportGradsSizeMismatchPanics: a vector from a different
// architecture must be refused loudly.
func TestImportGradsSizeMismatchPanics(t *testing.T) {
	net, _ := gradwalkNet(23)
	for _, bad := range []int{GradSize(net) - 1, GradSize(net) + 1} {
		func(n int) {
			defer func() {
				if recover() == nil {
					t.Fatalf("ImportGrads accepted a %d-element vector for a %d-element network", n, GradSize(net))
				}
			}()
			ImportGrads(net, make([]float32, n), 1)
		}(bad)
	}
}

// TestSaltNetState: salting perturbs only the dropout RNG positions,
// deterministically; salt 0 is the identity; equal positions (shared
// RNGs) salt equally.
func TestSaltNetState(t *testing.T) {
	net, _ := gradwalkNet(24)
	st := CaptureNetState(net)

	id := SaltNetState(st, 0)
	for i := range st {
		if pos, ok := st[i].(uint64); ok && id[i].(uint64) != pos {
			t.Fatalf("salt 0 changed RNG entry %d", i)
		}
	}

	s1, s1b, s2 := SaltNetState(st, 1), SaltNetState(st, 1), SaltNetState(st, 2)
	sawRNG := false
	for i := range st {
		pos, ok := st[i].(uint64)
		if !ok {
			// Non-RNG entries (BN running stats) must pass through as
			// the same snapshot value, not get rewritten.
			if _, isBN := s1[i].(bnState); !isBN {
				t.Fatalf("salting changed the type of entry %d (%T → %T)", i, st[i], s1[i])
			}
			continue
		}
		sawRNG = true
		if s1[i] != s1b[i] {
			t.Fatalf("salting entry %d is not deterministic", i)
		}
		if s1[i].(uint64) == pos {
			t.Fatalf("salt 1 left RNG entry %d unchanged", i)
		}
		if s1[i] == s2[i] {
			t.Fatalf("salts 1 and 2 collide on entry %d", i)
		}
	}
	if !sawRNG {
		t.Fatal("test network has no dropout RNG entry")
	}

	// Restoring a salted state then the original must be lossless.
	RestoreNetState(net, s1)
	RestoreNetState(net, st)
	back := CaptureNetState(net)
	for i := range st {
		switch a := st[i].(type) {
		case uint64:
			if back[i].(uint64) != a {
				t.Fatalf("RNG entry %d not restored", i)
			}
		}
	}
}

// FlattenGrads copies every parameter gradient under root into dst in
// Params() order and returns the number of elements written. dst must
// hold at least GradSize(root) elements.
func FlattenGrads(root Layer, dst []float32) int {
	off := 0
	for _, p := range root.Params() {
		off += copy(dst[off:], p.Grad.Data)
	}
	return off
}
