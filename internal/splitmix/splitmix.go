// Package splitmix is the repo's one shared integer mixer: the
// splitmix64 finalizer of Steele, Lea & Flood's SplittableRandom. It
// turns structured 64-bit inputs — connection indices, run seeds, small
// sequence numbers with a client base in the high bits — into
// well-distributed hashes, which is exactly what fault stream seeding,
// gradient-key namespacing and dropout salting all need: nearby inputs
// must land far apart.
//
// The mixer is a bijection on uint64, so namespaces derived through it
// collide exactly when their seeds do.
package splitmix

// Gamma is the golden-ratio increment of the splitmix64 generator:
// advancing a stream adds Gamma to its state before mixing, and
// derived streams offset their seeds by multiples of it so stream i of
// seed s shares nothing with stream i+1 of seed s-1.
const Gamma = 0x9e3779b97f4a7c15

// Mix is the splitmix64 finalizer: a bijective avalanche mix of x.
func Mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Stream is a splitmix64 sequence: state advances by Gamma per draw
// and every output is Mix of the new state. The zero Stream is a valid
// seed-0 stream.
type Stream struct{ state uint64 }

// NewStream returns a stream over seed's splitmix64 sequence.
func NewStream(seed uint64) *Stream { return &Stream{state: seed} }

// Next returns the stream's next value.
func (s *Stream) Next() uint64 {
	s.state += Gamma
	return Mix(s.state)
}
