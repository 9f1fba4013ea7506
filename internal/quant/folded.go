package quant

// Folded quantizer tables for scaled-DCT pipelines, libjpeg-style: a
// scaled transform (dct.AANForward8x8) leaves a known per-coefficient
// factor unapplied, and instead of descaling every coefficient and then
// dividing by the DQT entry, both are pre-combined into one float32
// multiplier per coefficient. Quantization collapses to a multiply +
// round + clip, and dequantization to a single multiply — the software
// mirror of the paper's CDU pipeline where the DCT units feed the
// quantizer with no intermediate normalization stage (§III-D).

// FoldedForward returns the fused forward-quantizer table for this DQT:
// out[i] = descale[i] / divisor_i, where divisor_i is the raw entry for
// the DIV backend or the power-of-two ShiftLogs divisor for SH, and
// descale converts the scaled DCT output to the JPEG normalization
// (dct.AANDescale2D for the AAN kernels). Quantizing is then
// round(coef·out[i]) — see FoldedQuantize.
func (d *DQT) FoldedForward(shift bool, descale *[64]float64) [64]float32 {
	var out [64]float32
	if shift {
		logs := d.ShiftLogs()
		for i := range out {
			out[i] = float32(descale[i] / float64(int32(1)<<logs[i]))
		}
		return out
	}
	for i, q := range d.Entries {
		out[i] = float32(descale[i] / q)
	}
	return out
}

// FoldedInverse returns the fused dequantizer table: out[i] =
// divisor_i · prescale[i], where prescale prepares JPEG-normalized
// coefficients for the scaled inverse transform (dct.AANPrescale2D).
// Dequantizing is then q·out[i] — see FoldedDequantize.
func (d *DQT) FoldedInverse(shift bool, prescale *[64]float64) [64]float32 {
	var out [64]float32
	if shift {
		logs := d.ShiftLogs()
		for i := range out {
			out[i] = float32(float64(int32(1)<<logs[i]) * prescale[i])
		}
		return out
	}
	for i, q := range d.Entries {
		out[i] = float32(q * prescale[i])
	}
	return out
}

// FoldedQuantize quantizes a scaled-DCT coefficient block with a
// pre-folded table (FoldedForward): one multiply, round-half-away, clip
// per coefficient, all in float32 — the whole quantizer is two float
// ops per coefficient, nothing branches and nothing converts to float64.
func FoldedQuantize(coef *[64]float32, table *[64]float32, out *[64]int8) {
	for i, c := range coef {
		out[i] = RoundSat32(float32(c * table[i]))
	}
}

// FoldedDequantize expands quantized values into prescaled coefficients
// ready for the scaled inverse transform (table from FoldedInverse).
func FoldedDequantize(q *[64]int8, table *[64]float32, out *[64]float32) {
	for i, v := range q {
		out[i] = float32(v) * table[i]
	}
}
