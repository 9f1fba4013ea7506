package quant

import (
	"math"
	"testing"
)

// The branchy originals RoundSat64/RoundSat32 replaced, kept as oracles.

func branchyRoundSat64(f float64) int8 {
	var q int32
	if f >= 0 {
		q = int32(f + 0.5)
	} else {
		q = int32(f - 0.5)
	}
	if q > 127 {
		q = 127
	}
	if q < -128 {
		q = -128
	}
	return int8(q)
}

func branchyRoundSat32(v float32) int8 {
	var q int32
	if v >= 0 {
		q = int32(v + 0.5)
	} else {
		q = int32(v - 0.5)
	}
	if q > 127 {
		q = 127
	}
	if q < -128 {
		q = -128
	}
	return int8(q)
}

func checkRound(t *testing.T, v float32) {
	t.Helper()
	if got, want := RoundSat32(v), branchyRoundSat32(v); got != want {
		t.Fatalf("RoundSat32(%v = %#08x) = %d, branchy form %d", v, math.Float32bits(v), got, want)
	}
	f := float64(v)
	if got, want := RoundSat64(f), branchyRoundSat64(f); got != want {
		t.Fatalf("RoundSat64(%v) = %d, branchy form %d", f, got, want)
	}
}

// TestRoundSatMatchesBranchyForm sweeps the helper against the branchy
// original: every float32 exponent × a mantissa stride, both signs (which
// covers ±0, subnormals, ±Inf, NaNs of both signs and |x| ≥ 2³¹), every
// tie ±(k+½) and its two float32 neighbours for k ≤ 200, and float64
// values between float32 grid points. Out-of-range inputs are compared
// too: both forms run the same add and the same conversion instruction,
// so they agree on this GOARCH even where Go leaves the result
// implementation-defined.
func TestRoundSatMatchesBranchyForm(t *testing.T) {
	for exp := uint32(0); exp < 256; exp++ {
		for man := uint32(0); man < 1<<23; man += 4099 {
			bits := exp<<23 | man
			checkRound(t, math.Float32frombits(bits))
			checkRound(t, math.Float32frombits(bits|1<<31))
		}
		// The last mantissa of the binade (largest subnormal, MaxFloat32,
		// an all-ones NaN payload).
		checkRound(t, math.Float32frombits(exp<<23|(1<<23-1)))
		checkRound(t, math.Float32frombits(exp<<23|(1<<23-1)|1<<31))
	}
	for k := 0; k <= 200; k++ {
		tie := float32(k) + 0.5
		for _, v := range []float32{tie, math.Nextafter32(tie, 0), math.Nextafter32(tie, 1e9)} {
			checkRound(t, v)
			checkRound(t, -v)
		}
		tie64 := float64(k) + 0.5
		for _, f := range []float64{tie64, math.Nextafter(tie64, 0), math.Nextafter(tie64, 1e9)} {
			for _, s := range []float64{f, -f} {
				if got, want := RoundSat64(s), branchyRoundSat64(s); got != want {
					t.Fatalf("RoundSat64(%v) = %d, branchy form %d", s, got, want)
				}
			}
		}
	}
	for _, f := range []float64{
		0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Inf(1), math.Inf(-1), math.NaN(), -math.NaN(),
		1 << 31, -(1 << 31), 1<<31 - 0.5, -(1<<31 - 0.5), 1<<31 - 1, 1 << 40, -(1 << 40),
		math.MaxFloat64, -math.MaxFloat64, 127.49999999999999, 127.5, -128.5, -128.50000000000003,
	} {
		if got, want := RoundSat64(f), branchyRoundSat64(f); got != want {
			t.Fatalf("RoundSat64(%v) = %d, branchy form %d", f, got, want)
		}
	}
}

func TestRoundSatValues(t *testing.T) {
	for _, c := range []struct {
		in   float64
		want int8
	}{
		{0, 0}, {0.49, 0}, {0.5, 1}, {-0.5, -1}, {1.5, 2}, {-1.5, -2}, {2.5, 3},
		{126.5, 127}, {127.4, 127}, {300, 127}, {-127.5, -128}, {-128.4, -128}, {-300, -128},
	} {
		if got := RoundSat64(c.in); got != c.want {
			t.Errorf("RoundSat64(%v) = %d, want %d", c.in, got, c.want)
		}
		if got := RoundSat32(float32(c.in)); got != c.want {
			t.Errorf("RoundSat32(%v) = %d, want %d", c.in, got, c.want)
		}
	}
}
