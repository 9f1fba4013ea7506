package splitmix

import "testing"

// TestMixReferenceVectors pins the mixer to fixed vectors (the first
// outputs of the splitmix64 generator for seed 1234567: Mix(seed +
// i*Gamma) for i = 1..3) so the shared implementation can never drift
// from what the netfaults chaos schedules and the chaos soak's lost
// keys were recorded against.
func TestMixReferenceVectors(t *testing.T) {
	seed := uint64(1234567)
	want := []uint64{
		0x599ed017fb08fc85,
		0x2c73f08458540fa5,
		0x883ebce5a3f27c77,
	}
	for i, w := range want {
		got := Mix(seed + uint64(i+1)*Gamma)
		if got != w {
			t.Fatalf("Mix(seed + %d*Gamma) = %#x, want %#x", i+1, got, w)
		}
	}
}

// TestStreamMatchesManualAdvance: Stream draws are exactly
// Mix(seed + n*Gamma).
func TestStreamMatchesManualAdvance(t *testing.T) {
	s := NewStream(42)
	for n := 1; n <= 100; n++ {
		if got, want := s.Next(), Mix(42+uint64(n)*Gamma); got != want {
			t.Fatalf("draw %d: %#x, want %#x", n, got, want)
		}
	}
}

// TestMixAvalanche: flipping any single input bit must flip a healthy
// fraction of output bits — the property its callers rely on so
// consecutive keys and seeds spread instead of landing side by side.
func TestMixAvalanche(t *testing.T) {
	base := Mix(0xdeadbeef)
	for bit := 0; bit < 64; bit++ {
		diff := base ^ Mix(0xdeadbeef^(1<<bit))
		n := 0
		for d := diff; d != 0; d &= d - 1 {
			n++
		}
		if n < 16 || n > 48 {
			t.Fatalf("flipping input bit %d changed %d output bits", bit, n)
		}
	}
}

// TestMixZeroFixedPoint pins the mixer's one fixed point: Mix(0) = 0.
// Callers that feed raw keys or seeds straight into Mix must account
// for it themselves (streams never hit it — they offset by Gamma first).
func TestMixZeroFixedPoint(t *testing.T) {
	if got := Mix(0); got != 0 {
		t.Fatalf("Mix(0) = %#x, want 0 (documented fixed point)", got)
	}
	if got := Mix(Gamma); got == 0 {
		t.Fatal("Mix(Gamma) = 0; first stream draw from seed 0 must be nonzero")
	}
}
