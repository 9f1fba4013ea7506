package coding

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"jpegact/internal/tensor"
)

// refEncodeBRC is the branch-per-element packer EncodeBRC replaced; with
// DecodeBRC over its output it is the oracle for both results.
func refEncodeBRC(vals []float32) []byte {
	out := make([]byte, (len(vals)+7)/8)
	for i, v := range vals {
		if v > 0 {
			out[i/8] |= 1 << uint(i%8)
		}
	}
	return out
}

// DecodeBRC expands the mask back to booleans; n is the element count.
func DecodeBRC(data []byte, n int) ([]bool, error) {
	if len(data) < (n+7)/8 {
		return nil, ErrCorrupt
	}
	out := make([]bool, n)
	for i := range out {
		out[i] = data[i/8]&(1<<uint(i%8)) != 0
	}
	return out, nil
}

// TestEncodeBRCMatchesReference: packed bytes and mask equal the serial
// reference at every worker count, at lengths that are not multiples of
// 8 or of the shard size, with the values a comparison can get wrong.
func TestEncodeBRCMatchesReference(t *testing.T) {
	special := []float32{
		0, float32(math.Copysign(0, -1)), math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
		float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()), -float32(math.NaN()), 1, -1,
	}
	r := tensor.NewRNG(21)
	for _, n := range []int{0, 1, 7, 8, 9, 8*brcGrain - 1, 8 * brcGrain, 8*brcGrain + 1, 3*8*brcGrain + 13} {
		vals := make([]float32, n)
		for i := range vals {
			if i%11 == 0 {
				vals[i] = special[(i/11)%len(special)]
			} else {
				vals[i] = float32(r.Norm())
			}
		}
		want := refEncodeBRC(vals)
		wantMask, err := DecodeBRC(want, n)
		if err != nil {
			t.Fatal(err)
		}
		withWorkers(t, func(w int) {
			packed, mask := EncodeBRC(vals)
			if !bytes.Equal(packed, want) {
				t.Fatalf("n=%d workers=%d: packed bytes differ from the reference", n, w)
			}
			if !slices.Equal(mask, wantMask) {
				t.Fatalf("n=%d workers=%d: mask differs from the decoded reference", n, w)
			}
		})
	}
}

func BenchmarkEncodeBRC(b *testing.B) {
	r := tensor.NewRNG(12)
	vals := make([]float32, benchVals)
	for i := range vals {
		vals[i] = float32(r.Norm()) // sign is a coin flip per element
	}
	b.SetBytes(int64(4 * len(vals)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		EncodeBRC(vals)
	}
}
