// Quickstart: compress one activation tensor with every method of the
// paper and print the ratio and reconstruction error — the 30-second tour
// of the public API.
package main

import (
	"fmt"
	"math"

	"jpegact"
)

func main() {
	// Build a dense conv activation: 4 images × 16 channels × 32×32, with
	// the flat-spectrum statistics real CNN activations have (Fig. 2).
	x := jpegact.NewTensor(4, 16, 32, 32)
	fillActivationLike(x)

	fmt.Println("compressing a", x.Shape.String(), "conv activation")
	fmt.Printf("%-18s %-8s %-12s %s\n", "method", "ratio", "L2 error", "lossless")
	for _, m := range jpegact.Methods() {
		res := jpegact.CompressActivation(m, x, jpegact.KindConv, 10)
		errStr := "-"
		if res.Recovered != nil {
			errStr = fmt.Sprintf("%.3e", l2(x, res.Recovered))
		}
		fmt.Printf("%-18s %-8.2f %-12s %v\n", m.Name(), res.Ratio(), errStr, jpegact.Lossless(m))
	}

	// The same method applies different coders per activation kind
	// (Table II): a ReLU output not feeding a conv needs only its sign.
	relu := x.Clone()
	for i, v := range relu.Data {
		if v < 0 {
			relu.Data[i] = 0
		}
	}
	res := jpegact.CompressActivation(jpegact.JPEGACT(), relu, jpegact.KindReLUToOther, 0)
	fmt.Printf("\nReLU(to other) under JPEG-ACT: BRC mask, %.0fx\n", res.Ratio())
}

// fillActivationLike synthesizes per-block DCT coefficients and inverts
// them — a stand-in for a real conv output (see internal/data for the
// full generator).
func fillActivationLike(x *jpegact.Tensor) {
	seed := uint64(1)
	next := func() float64 {
		seed ^= seed >> 12
		seed ^= seed << 25
		seed ^= seed >> 27
		return float64(seed*0x2545F4914F6CDD1D>>11) / float64(uint64(1)<<53)
	}
	for i := range x.Data {
		// Sum of a smooth component and noise gives a falling-but-flat
		// spectrum, close enough for the quickstart.
		u1, u2 := next(), next()
		for u1 == 0 {
			u1 = next()
		}
		x.Data[i] = float32(math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2))
		if i > 0 {
			x.Data[i] = float32(0.6*x.Data[i-1]) + float32(0.8*x.Data[i])
		}
	}
}

func l2(a, b *jpegact.Tensor) float64 {
	var sum float64
	for i := range a.Data {
		d := float64(a.Data[i] - b.Data[i])
		sum += float64(d * d)
	}
	return math.Sqrt(sum) / float64(len(a.Data))
}
