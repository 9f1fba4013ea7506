package codec

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"testing"

	"jpegact/internal/compress"
	"jpegact/internal/frame"
	"jpegact/internal/parallel"
	"jpegact/internal/quant"
	"jpegact/internal/tensor"
)

// Golden digests. The equivalence tests elsewhere (fused vs unfused,
// worker count vs worker count, codec vs functional method) compare two
// runs of the same rounding, DCT and ZVC helpers, so a mistake shared by
// both sides passes them. These constants were recorded from the kernels
// as they stood before the branch-free rewrite: a kernel change that moves
// one frame byte or one decoded float bit fails here.
//
// The constants hold on amd64. The Go compiler fuses x*y+z into one FMA
// on arm64, ppc64le, s390x and riscv64, which legitimately changes the
// float32 AAN butterflies' low bits, so the comparison is skipped there.

type goldenCase struct {
	dqt   string
	kind  compress.Kind
	shape tensor.Shape
}

func (c goldenCase) String() string {
	return fmt.Sprintf("%s/%v/%dx%dx%dx%d", c.dqt, c.kind, c.shape.N, c.shape.C, c.shape.H, c.shape.W)
}

func goldenCases() []goldenCase {
	shapes := []tensor.Shape{
		{N: 8, C: 16, H: 32, W: 32}, // the benchmark's conv activation
		{N: 2, C: 3, H: 8, W: 8},
		{N: 2, C: 5, H: 13, W: 11}, // pad fringe on both block axes
		{N: 2, C: 8, H: 4, W: 4},   // W < 8: untileable, falls to SFPR+ZVC
		{N: 1, C: 1, H: 1, W: 13},  // one short ZVC tail group
	}
	kinds := []compress.Kind{
		compress.KindConv, compress.KindReLUToOther, compress.KindReLUToConv,
		compress.KindPoolDropout, compress.KindGradient,
	}
	var out []goldenCase
	for _, d := range []string{"optL", "optH"} {
		for _, k := range kinds {
			for _, sh := range shapes {
				out = append(out, goldenCase{d, k, sh})
			}
		}
	}
	return out
}

// goldenTensor is a fixed function of the case: dense zero-mean values
// for conv and gradient kinds, half zeros for the ReLU and pooling
// kinds, with a few outliers per channel so that SFPR's saturating cast
// (S = 1.125 maps the channel max to 144) and small codes both occur.
func goldenTensor(c goldenCase, idx int) *tensor.Tensor {
	r := tensor.NewRNG(uint64(1000 + idx))
	x := tensor.New(c.shape.N, c.shape.C, c.shape.H, c.shape.W)
	dense := c.kind == compress.KindConv || c.kind == compress.KindGradient
	for i := range x.Data {
		v := float32(r.Norm())
		if i%97 == 0 {
			v *= 4
		}
		if dense || v > 0 {
			x.Data[i] = v
		}
	}
	return x
}

func goldenDQT(name string) quant.DQT {
	if name == "optH" {
		return quant.OptH()
	}
	return quant.OptL()
}

// goldenDigests encodes and decodes one case and returns the SHA-256 of
// the framed bytes and of the decoded values' bit patterns (for BRC,
// whose decode is a no-op, of the sign mask the encoder attached).
func goldenDigests(t *testing.T, c goldenCase, idx int) (string, string) {
	t.Helper()
	p := New(goldenDQT(c.dqt))
	x := goldenTensor(c, idx)
	enc, err := p.Encode(c.kind, x)
	if err != nil {
		t.Fatalf("%v: encode: %v", c, err)
	}
	b := frame.EncodeFrame(enc.Frame)
	fsum := sha256.Sum256(b)
	f, err := frame.DecodeFrame(b)
	if err != nil {
		t.Fatalf("%v: frame: %v", c, err)
	}
	out, err := p.Decode(f)
	if err != nil {
		t.Fatalf("%v: decode: %v", c, err)
	}
	h := sha256.New()
	if out == nil {
		mask := make([]byte, len(enc.Mask))
		for i, m := range enc.Mask {
			if m {
				mask[i] = 1
			}
		}
		h.Write(mask)
	} else {
		if out.Shape != c.shape {
			t.Fatalf("%v: decoded shape %v", c, out.Shape)
		}
		buf := make([]byte, 4*len(out.Data))
		for i, v := range out.Data {
			binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(v))
		}
		h.Write(buf)
	}
	return hex.EncodeToString(fsum[:]), hex.EncodeToString(h.Sum(nil))
}

func TestGoldenDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digests were recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	cases := goldenCases()
	if len(cases) != len(goldenTable) {
		t.Fatalf("%d cases, %d golden rows", len(cases), len(goldenTable))
	}
	for _, w := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		old := parallel.SetWorkers(w)
		for i, c := range cases {
			fsum, dsum := goldenDigests(t, c, i)
			want := goldenTable[i]
			if want.name != c.String() {
				t.Fatalf("row %d is %q, case is %q", i, want.name, c)
			}
			if fsum != want.frame || dsum != want.decoded {
				t.Errorf("workers=%d %v:\n\tgot  {%q, %q, %q},\n\twant {%q, %q, %q},",
					w, c, c.String(), fsum, dsum, want.name, want.frame, want.decoded)
			}
		}
		parallel.SetWorkers(old)
	}
}
