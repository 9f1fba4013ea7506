// Package quant implements JPEG quantization for the JPEG-ACT pipeline:
// Discrete Quantization Tables (DQTs), the standard division quantizer
// (DIV, used by JPEG-BASE, §III-E) and the hardware-friendly power-of-two
// shift quantizer (SH, used by JPEG-ACT, §III-F).
//
// A DQT entry q for frequency i means the DCT coefficient is divided by q
// and rounded to an 8-bit integer; larger entries discard more precision.
// SH restricts entries to powers of two so the divide becomes a 3-bit
// shift, cutting quantizer area by ~88% at the cost of only eight
// quantization modes per frequency.
package quant

import (
	"fmt"
	"math"
)

// DQT is a Discrete Quantization Table: one divisor per coefficient of an
// 8×8 DCT block, in row-major (not zigzag) order.
type DQT struct {
	Name    string
	Entries [64]float64
}

// jpegLuminanceBase is the Annex-K luminance quantization table from the
// JPEG standard, the base for quality scaling.
var jpegLuminanceBase = [64]float64{
	16, 11, 10, 16, 24, 40, 51, 61,
	12, 12, 14, 19, 26, 58, 60, 55,
	14, 13, 16, 24, 40, 57, 69, 56,
	14, 17, 22, 29, 51, 87, 80, 62,
	18, 22, 37, 56, 68, 109, 103, 77,
	24, 35, 55, 64, 81, 104, 113, 92,
	49, 64, 78, 87, 103, 121, 120, 101,
	72, 92, 95, 98, 112, 100, 103, 99,
}

// JPEGQuality returns the standard JPEG luminance DQT scaled to the given
// quality in [1, 100] using the IJG scaling rule (quality 50 = base table).
func JPEGQuality(quality int) DQT {
	if quality < 1 {
		quality = 1
	}
	if quality > 100 {
		quality = 100
	}
	var scale float64
	if quality < 50 {
		scale = 5000 / float64(quality)
	} else {
		scale = 200 - 2*float64(quality)
	}
	var d DQT
	d.Name = fmt.Sprintf("jpeg%d", quality)
	for i, base := range jpegLuminanceBase {
		v := math.Floor((base*scale + 50) / 100)
		if v < 1 {
			v = 1
		}
		if v > 255 {
			v = 255
		}
		d.Entries[i] = v
	}
	return d
}

// Uniform returns a DQT with every entry set to v except the DC entry,
// which is pinned to dc (the paper pins the first coefficient to 8 to keep
// batch-norm statistics stable, §IV).
func Uniform(name string, dc, v float64) DQT {
	var d DQT
	d.Name = name
	for i := range d.Entries {
		d.Entries[i] = v
	}
	d.Entries[0] = dc
	return d
}

// ShiftLogs converts the DQT to the 3-bit log form used by the SH unit:
// each entry becomes round(log2(q)) clamped to [0, 7].
func (d *DQT) ShiftLogs() [64]uint8 {
	var out [64]uint8
	for i, q := range d.Entries {
		if q < 1 {
			q = 1
		}
		s := int(math.Round(math.Log2(q)))
		if s < 0 {
			s = 0
		}
		if s > 7 {
			s = 7
		}
		out[i] = uint8(s)
	}
	return out
}

// ShiftQuantize applies the SH unit's power-of-two quantization: each
// coefficient is right-shifted by the 3-bit log-DQT entry with
// round-to-nearest, then clipped to 8 bits. Input coefficients are the
// integer DCT outputs of the fixed-point datapath.
func ShiftQuantize(coef *[64]int32, logs *[64]uint8, out *[64]int8) {
	for i, c := range coef {
		s := uint(logs[i])
		var v int32
		if s == 0 {
			v = c
		} else if c >= 0 {
			v = (c + 1<<(s-1)) >> s
		} else {
			v = -((-c + 1<<(s-1)) >> s)
		}
		out[i] = clipInt8(v)
	}
}

// ShiftDequantize reverses ShiftQuantize: a left shift by the log entry.
func ShiftDequantize(q *[64]int8, logs *[64]uint8, out *[64]int32) {
	for i, v := range q {
		out[i] = int32(v) << uint(logs[i])
	}
}

// ShiftQuantizeFloat is the functional-simulation form of SH quantization
// operating on float coefficients (the training-time simulation path, where
// the DCT runs in float but the quantizer still snaps to powers of two).
func ShiftQuantizeFloat(coef *[64]float32, d *DQT, out *[64]int8) {
	logs := d.ShiftLogs()
	ShiftQuantizeFloatLogs(coef, &logs, out)
}

// ShiftQuantizeFloatLogs is ShiftQuantizeFloat with the shift table
// precomputed, for per-block callers that hoist d.ShiftLogs() (64
// log2+round calls) out of their block loop.
func ShiftQuantizeFloatLogs(coef *[64]float32, logs *[64]uint8, out *[64]int8) {
	for i, c := range coef {
		div := float64(int32(1) << logs[i])
		out[i] = RoundSat64(float64(c) / div)
	}
}
