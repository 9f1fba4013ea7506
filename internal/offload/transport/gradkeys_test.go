package transport

import "testing"

// TestGradKeyLayout: fields land in their documented bit ranges and
// round-trip through the packed key.
func TestGradKeyLayout(t *testing.T) {
	tag, step, slot, chunk := uint64(0x5abc), uint64(0xfedcba), uint64(0xabc), uint64(0xdef)
	k := GradKey(tag, step, slot, chunk)
	if !IsGradKey(k) {
		t.Fatal("GradKey output not in grad namespace")
	}
	if got := k >> 48 & (1<<15 - 1); got != tag {
		t.Fatalf("tag field %#x, want %#x", got, tag)
	}
	if got := k >> 24 & (1<<24 - 1); got != step {
		t.Fatalf("step field %#x, want %#x", got, step)
	}
	if got := k >> 12 & (1<<12 - 1); got != slot {
		t.Fatalf("slot field %#x, want %#x", got, slot)
	}
	if got := k & (1<<12 - 1); got != chunk {
		t.Fatalf("chunk field %#x, want %#x", got, chunk)
	}
}

// TestGradKeyMasksOverflow: inputs wider than their fields are masked
// and must not smear into neighbouring fields.
func TestGradKeyMasksOverflow(t *testing.T) {
	if got, want := GradKey(1<<15, 0, 0, 0), GradKey(0, 0, 0, 0); got != want {
		t.Fatalf("overflowing tag leaked: %#x != %#x", got, want)
	}
	if got, want := GradKey(0, 1<<24|7, 0, 0), GradKey(0, 7, 0, 0); got != want {
		t.Fatalf("overflowing step leaked: %#x != %#x", got, want)
	}
	if got, want := GradKey(0, 0, 1<<12|3, 0), GradKey(0, 0, 3, 0); got != want {
		t.Fatalf("overflowing slot leaked: %#x != %#x", got, want)
	}
	if got, want := GradKey(0, 0, 0, 1<<12|5), GradKey(0, 0, 0, 5); got != want {
		t.Fatalf("overflowing chunk leaked: %#x != %#x", got, want)
	}
}

// TestGradKeyDistinct: distinct (step, slot, chunk) triples under one
// tag give distinct keys — the property the exchange's correctness
// rests on.
func TestGradKeyDistinct(t *testing.T) {
	const tag = 0x2a
	seen := map[uint64]bool{}
	for step := uint64(0); step < 4; step++ {
		for slot := uint64(0); slot < 6; slot++ {
			for chunk := uint64(0); chunk < 8; chunk++ {
				k := GradKey(tag, step, slot, chunk)
				if seen[k] {
					t.Fatalf("key collision at step=%d slot=%d chunk=%d", step, slot, chunk)
				}
				seen[k] = true
			}
		}
	}
}

// TestIsGradKeyActivationRange: activation keys — a sequence number
// under any base a store draws in bits 32..62 — never read as gradient
// keys.
func TestIsGradKeyActivationRange(t *testing.T) {
	for _, k := range []uint64{0, 1, 1 << 32, 0x7fff_ffff_ffff_ffff} {
		if IsGradKey(k) {
			t.Fatalf("activation key %#x read as gradient key", k)
		}
	}
}
