package quant

// Reference quantizers the tests hold the folded tables and the integer
// SH datapath against; the product runs neither.

// Effective returns the divisor the given backend actually applies for
// entry i: the raw entry for DIV, the nearest power of two for SH.
func (d *DQT) Effective(i int, shift bool) float64 {
	if !shift {
		return d.Entries[i]
	}
	return float64(int(1) << d.ShiftLogs()[i])
}

// DivQuantize applies division quantization (the JPEG-BASE DIV unit) to a
// DCT coefficient block, producing signed 8-bit quantized values.
func DivQuantize(coef *[64]float32, d *DQT, out *[64]int8) {
	for i, c := range coef {
		out[i] = RoundSat64(float64(c) / d.Entries[i])
	}
}

// DivDequantize reverses DivQuantize (up to the quantization loss).
func DivDequantize(q *[64]int8, d *DQT, out *[64]float32) {
	for i, v := range q {
		out[i] = float32(float64(v) * d.Entries[i])
	}
}

// ShiftDequantizeFloat reverses ShiftQuantizeFloat.
func ShiftDequantizeFloat(q *[64]int8, d *DQT, out *[64]float32) {
	logs := d.ShiftLogs()
	for i, v := range q {
		out[i] = float32(int32(v) << logs[i])
	}
}
