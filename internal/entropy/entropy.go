// Package entropy implements the Shannon-entropy analyses the paper uses
// to motivate transform coding of activations (Figs. 2 and 6): dense conv
// activations, like images, have lower entropy in the DCT frequency
// domain than in the spatial domain, so the frequency domain is the more
// compact representation.
package entropy

import (
	"math"

	"jpegact/internal/compress"
	"jpegact/internal/dct"
	"jpegact/internal/sfpr"
	"jpegact/internal/tensor"
)

// Shannon returns the Shannon entropy in bits/value of the int8 stream
// (Eqn. 11 with m = 8).
func Shannon(vals []int8) float64 {
	if len(vals) == 0 {
		return 0
	}
	var hist [256]int
	for _, v := range vals {
		hist[int(v)+128]++
	}
	return fromCounts(hist[:], len(vals))
}

// ShannonInts returns the Shannon entropy in bits/value of an arbitrary
// integer stream (used for DCT coefficients, which exceed int8 range).
func ShannonInts(vals []int) float64 {
	if len(vals) == 0 {
		return 0
	}
	hist := make(map[int]int, 512)
	for _, v := range vals {
		hist[v]++
	}
	total := float64(len(vals))
	var h float64
	for _, n := range hist {
		p := float64(n) / total
		h -= p * math.Log2(p)
	}
	return h
}

func fromCounts(hist []int, total int) float64 {
	t := float64(total)
	var h float64
	for _, n := range hist {
		if n == 0 {
			continue
		}
		p := float64(n) / t
		h -= p * math.Log2(p)
	}
	return h
}

// Analysis holds the spatial- and frequency-domain entropies of one
// activation tensor, plus the per-frequency breakdown used by Fig. 2.
// Both domains are quantized with the same unit step so the comparison is
// fair: the orthonormal DCT preserves energy, and any entropy drop comes
// from energy compaction, not from rescaling.
type Analysis struct {
	Spatial      float64     // bits/value before the DCT
	Frequency    float64     // bits/value after the DCT
	PerFrequency [64]float64 // entropy of each of the 64 DCT coefficients
}

// Gain returns the entropy reduction (bits/value) obtained by moving to
// the frequency domain; positive means transform coding helps.
func (a Analysis) Gain() float64 { return a.Spatial - a.Frequency }

// Analyze quantizes x to int8 with SFPR (global scale s), measures the
// spatial entropy of the codes, applies the 8×8 block DCT to the code
// plane and measures the frequency entropy at the same unit step.
func Analyze(x *tensor.Tensor, s float64) Analysis {
	c := sfpr.Compress(x, s)
	var a Analysis
	a.Spatial = Shannon(c.Values)

	// Block the int8 codes as the padded 2D plane the CDU sees.
	info := tensor.BlockPadInfo(c.Shape, dct.BlockSize)
	rows := c.Shape.N * c.Shape.C * c.Shape.H

	freqVals := make([]int, 0, info.PaddedElems())
	perFreq := make([][]int, 64)
	var blk dct.Block
	for by := 0; by < info.BlockRows/8; by++ {
		for bx := 0; bx < info.BlockCols/8; bx++ {
			compress.GatherBlock(c.Values, rows, c.Shape.W, by, bx, &blk)
			dct.Forward8x8(&blk)
			for i := 0; i < 64; i++ {
				q := int(math.Round(float64(blk[i])))
				freqVals = append(freqVals, q)
				perFreq[i] = append(perFreq[i], q)
			}
		}
	}
	a.Frequency = ShannonInts(freqVals)
	for i := 0; i < 64; i++ {
		a.PerFrequency[i] = ShannonInts(perFreq[i])
	}
	return a
}
