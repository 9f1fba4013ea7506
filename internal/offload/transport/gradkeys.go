package transport

// Gradient key namespace for the data-parallel exchange. An activation
// store's keys are its offload sequence numbers OR'd with the base the
// store drew in bits 32..62, so they never set bit 63. The gradient
// exchange claims the top bit as a namespace flag, and one actstore
// process can serve activations and gradients concurrently with zero
// wire-protocol changes: a gradient key is just another
// opaque uint64 to the protocol, and only the counters care.
//
// Layout (most to least significant):
//
//	bit  63     grad-namespace flag (1 = gradient key)
//	bits 62..48 run tag (15 bits, drawn once per run by GradTag, so
//	            two runs sharing a store collide with probability
//	            2^-15 whatever their seeds and options)
//	bits 47..24 step number (24 bits — 16M steps)
//	bits 23..12 slot (12 bits: slot m = the contribution of
//	            microbatch m)
//	bits 11..0  chunk index within the flattened gradient (12 bits)
//
// The layout is a private convention between the data-parallel trainer
// and the counters below; the store itself never parses it beyond
// IsGradKey.

import "math/rand/v2"

const (
	gradFlagBit  = uint64(1) << 63
	gradTagBits  = 15
	gradStepBits = 24
	gradSlotBits = 12
	// gradChunkBits is implied: 64 - 1 - 15 - 24 - 12 = 12.
	gradChunkBits = 12
)

// The exclusive bounds of a gradient key's step, slot and chunk fields.
// GradKey masks rather than rejects, so a trainer validates its counts
// against these once at set-up — a count past a field aliases another
// key.
const (
	GradMaxSteps  = 1 << gradStepBits
	GradMaxSlots  = 1 << gradSlotBits
	GradMaxChunks = 1 << gradChunkBits
)

// GradTag draws a 15-bit run tag from the runtime-seeded generator. A
// tag is an address, never content: nothing a run computes reads it.
func GradTag() uint64 {
	return rand.Uint64N(1 << gradTagBits)
}

// GradKey builds the store key for one gradient chunk: slot m names
// microbatch m's contribution (the reduced gradient never crosses the
// store). Inputs beyond their field widths are masked, not rejected —
// the trainer checks its step/slot/chunk counts against GradMax* before
// it starts.
func GradKey(tag, step, slot, chunk uint64) uint64 {
	return gradFlagBit |
		(tag&(1<<gradTagBits-1))<<(gradStepBits+gradSlotBits+gradChunkBits) |
		(step&(1<<gradStepBits-1))<<(gradSlotBits+gradChunkBits) |
		(slot&(1<<gradSlotBits-1))<<gradChunkBits |
		chunk&(1<<gradChunkBits-1)
}

// IsGradKey reports whether key lies in the gradient namespace.
func IsGradKey(key uint64) bool {
	return key&gradFlagBit != 0
}
