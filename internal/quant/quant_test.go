package quant

import (
	"math"
	"testing"
	"testing/quick"

	"jpegact/internal/tensor"
)

func TestJPEGQuality50IsBaseTable(t *testing.T) {
	d := JPEGQuality(50)
	if d.Entries[0] != 16 || d.Entries[63] != 99 {
		t.Fatalf("quality 50 should equal base table, got DC=%v last=%v", d.Entries[0], d.Entries[63])
	}
	if d.Name != "jpeg50" {
		t.Fatalf("Name = %q", d.Name)
	}
}

func TestJPEGQualityMonotone(t *testing.T) {
	// Higher quality must never have larger divisors.
	lo, hi := JPEGQuality(60), JPEGQuality(80)
	for i := range lo.Entries {
		if hi.Entries[i] > lo.Entries[i] {
			t.Fatalf("entry %d: q80 %v > q60 %v", i, hi.Entries[i], lo.Entries[i])
		}
	}
}

func TestJPEGQualityClamps(t *testing.T) {
	d := JPEGQuality(1)
	for i, v := range d.Entries {
		if v < 1 || v > 255 {
			t.Fatalf("entry %d out of range: %v", i, v)
		}
	}
	if JPEGQuality(-5).Entries != JPEGQuality(1).Entries {
		t.Fatal("quality below 1 should clamp to 1")
	}
	d100 := JPEGQuality(100)
	for i, v := range d100.Entries {
		if v != 1 {
			t.Fatalf("quality 100 entry %d = %v, want 1", i, v)
		}
	}
}

// TestJPEGQualityMatchesIJG holds every quality to libjpeg's integer
// rule: scale = 5000/q below 50 and 200-2q from 50 on, each entry
// (base·scale+50)/100 clamped to 1..255, all in truncating integer
// division.
func TestJPEGQualityMatchesIJG(t *testing.T) {
	base := [64]int{
		16, 11, 10, 16, 24, 40, 51, 61,
		12, 12, 14, 19, 26, 58, 60, 55,
		14, 13, 16, 24, 40, 57, 69, 56,
		14, 17, 22, 29, 51, 87, 80, 62,
		18, 22, 37, 56, 68, 109, 103, 77,
		24, 35, 55, 64, 81, 104, 113, 92,
		49, 64, 78, 87, 103, 121, 120, 101,
		72, 92, 95, 98, 112, 100, 103, 99,
	}
	for q := 1; q <= 100; q++ {
		scale := 200 - q*2
		if q < 50 {
			scale = 5000 / q
		}
		d := JPEGQuality(q)
		for i, b := range base {
			want := (b*scale + 50) / 100
			if want <= 0 {
				want = 1
			}
			if want > 255 {
				want = 255
			}
			if d.Entries[i] != float64(want) {
				t.Fatalf("quality %d entry %d = %v, libjpeg gives %d", q, i, d.Entries[i], want)
			}
		}
	}
}

func TestUniformPinsDC(t *testing.T) {
	d := Uniform("u", 8, 32)
	if d.Entries[0] != 8 {
		t.Fatal("DC not pinned")
	}
	for i := 1; i < 64; i++ {
		if d.Entries[i] != 32 {
			t.Fatalf("entry %d = %v", i, d.Entries[i])
		}
	}
}

func TestShiftLogs(t *testing.T) {
	var d DQT
	for i := range d.Entries {
		d.Entries[i] = 1
	}
	d.Entries[0] = 8   // log 3
	d.Entries[1] = 6   // round(log2 6)=3 (2.585 -> 3)
	d.Entries[2] = 5   // round(2.32)=2
	d.Entries[3] = 300 // clamp to 7
	d.Entries[4] = 0.3 // clamp to 0
	logs := d.ShiftLogs()
	want := []uint8{3, 3, 2, 7, 0}
	for i, w := range want {
		if logs[i] != w {
			t.Fatalf("log[%d] = %d, want %d", i, logs[i], w)
		}
	}
	if d.Effective(0, true) != 8 {
		t.Fatalf("Effective SH = %v", d.Effective(0, true))
	}
	if d.Effective(2, false) != 5 {
		t.Fatalf("Effective DIV = %v", d.Effective(2, false))
	}
}

func TestDivQuantizeRoundtrip(t *testing.T) {
	d := Uniform("u", 8, 10)
	var coef [64]float32
	r := tensor.NewRNG(1)
	for i := range coef {
		coef[i] = float32(r.Norm() * 100)
	}
	var q [64]int8
	var back [64]float32
	DivQuantize(&coef, &d, &q)
	DivDequantize(&q, &d, &back)
	for i := range coef {
		maxErr := float32(d.Entries[i]) / 2
		diff := coef[i] - back[i]
		if diff < 0 {
			diff = -diff
		}
		// Unless the value clipped, error is bounded by half a divisor.
		if q[i] > -128 && q[i] < 127 && diff > maxErr+1e-3 {
			t.Fatalf("entry %d: coef %v back %v err %v > %v", i, coef[i], back[i], diff, maxErr)
		}
	}
}

func TestDivQuantizeClipping(t *testing.T) {
	d := Uniform("u", 1, 1)
	var coef [64]float32
	coef[0] = 1e6
	coef[1] = -1e6
	var q [64]int8
	DivQuantize(&coef, &d, &q)
	if q[0] != 127 || q[1] != -128 {
		t.Fatalf("clipping failed: %d %d", q[0], q[1])
	}
}

func TestDivRoundHalfAway(t *testing.T) {
	d := Uniform("u", 10, 10)
	var coef [64]float32
	coef[0] = 15  // 1.5 -> 2
	coef[1] = -15 // -1.5 -> -2
	coef[2] = 14  // 1.4 -> 1
	var q [64]int8
	DivQuantize(&coef, &d, &q)
	if q[0] != 2 || q[1] != -2 || q[2] != 1 {
		t.Fatalf("rounding: got %d %d %d", q[0], q[1], q[2])
	}
}

func TestShiftQuantizeMatchesDivForPow2(t *testing.T) {
	// With a power-of-two DQT the SH and DIV quantizers must agree.
	d := Uniform("u", 8, 16)
	logs := d.ShiftLogs()
	r := tensor.NewRNG(2)
	var coefF [64]float32
	var coefI [64]int32
	for i := range coefF {
		v := int32(r.Intn(2000) - 1000)
		coefF[i] = float32(v)
		coefI[i] = v
	}
	var qd, qs [64]int8
	DivQuantize(&coefF, &d, &qd)
	ShiftQuantize(&coefI, &logs, &qs)
	for i := range qd {
		if qd[i] != qs[i] {
			t.Fatalf("entry %d: div %d shift %d (coef %v)", i, qd[i], qs[i], coefF[i])
		}
	}
}

func TestShiftRoundtrip(t *testing.T) {
	d := OptH()
	logs := d.ShiftLogs()
	r := tensor.NewRNG(3)
	var coef [64]int32
	for i := range coef {
		coef[i] = int32(r.Intn(1000) - 500)
	}
	var q [64]int8
	var back [64]int32
	ShiftQuantize(&coef, &logs, &q)
	ShiftDequantize(&q, &logs, &back)
	for i := range coef {
		bound := int32(1) << logs[i] // quantization step
		diff := coef[i] - back[i]
		if diff < 0 {
			diff = -diff
		}
		if q[i] > -128 && q[i] < 127 && diff > bound/2+1 {
			t.Fatalf("entry %d: coef %d back %d step %d", i, coef[i], back[i], bound)
		}
	}
}

func TestShiftFloatMatchesInt(t *testing.T) {
	d := OptL()
	logs := d.ShiftLogs()
	r := tensor.NewRNG(4)
	var coefF [64]float32
	var coefI [64]int32
	for i := range coefF {
		v := int32(r.Intn(800) - 400)
		coefF[i] = float32(v)
		coefI[i] = v
	}
	var qf, qi [64]int8
	ShiftQuantizeFloat(&coefF, &d, &qf)
	ShiftQuantize(&coefI, &logs, &qi)
	for i := range qf {
		if qf[i] != qi[i] {
			t.Fatalf("entry %d: float %d int %d", i, qf[i], qi[i])
		}
	}
	var backF [64]float32
	var backI [64]int32
	ShiftDequantizeFloat(&qf, &d, &backF)
	ShiftDequantize(&qi, &logs, &backI)
	for i := range backF {
		if backF[i] != float32(backI[i]) {
			t.Fatalf("dequant entry %d: %v vs %d", i, backF[i], backI[i])
		}
	}
}

func TestOptTablesShape(t *testing.T) {
	l, h := OptL(), OptH()
	if l.Entries[0] != 8 || h.Entries[0] != 8 {
		t.Fatal("optimized tables must pin DC to 8")
	}
	// optH must quantize harder than optL everywhere.
	for i := 1; i < 64; i++ {
		if h.Entries[i] <= l.Entries[i] {
			t.Fatalf("entry %d: optH %v <= optL %v", i, h.Entries[i], l.Entries[i])
		}
	}
	// Optimized tables are flatter than image tables: ratio of max/min AC
	// divisor must be far below jpeg80's.
	flat := func(d DQT) float64 {
		lo, hi := math.Inf(1), 0.0
		for i := 1; i < 64; i++ {
			lo = math.Min(lo, d.Entries[i])
			hi = math.Max(hi, d.Entries[i])
		}
		return hi / lo
	}
	if flat(l) > flat(JPEGQuality(80)) {
		t.Fatalf("optL flatness %v vs jpeg80 %v", flat(l), flat(JPEGQuality(80)))
	}
}

func TestSchedule(t *testing.T) {
	s := OptL5H()
	if s.For(0).Name != "optL" || s.For(4).Name != "optL" {
		t.Fatal("early epochs must use optL")
	}
	if s.For(5).Name != "optH" || s.For(100).Name != "optH" {
		t.Fatal("late epochs must use optH")
	}
	f := Fixed(JPEGQuality(80))
	if f.For(0).Name != "jpeg80" || f.For(50).Name != "jpeg80" {
		t.Fatal("fixed schedule must not switch")
	}
}

func TestShiftQuantizePropertyBounded(t *testing.T) {
	d := OptH()
	logs := d.ShiftLogs()
	f := func(raw [8]int16) bool {
		var coef [64]int32
		for i := range coef {
			coef[i] = int32(raw[i%8])
		}
		var q [64]int8
		ShiftQuantize(&coef, &logs, &q)
		var back [64]int32
		ShiftDequantize(&q, &logs, &back)
		for i := range back {
			step := int32(1) << logs[i]
			diff := coef[i] - back[i]
			if diff < 0 {
				diff = -diff
			}
			if q[i] > -128 && q[i] < 127 && diff > step {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
