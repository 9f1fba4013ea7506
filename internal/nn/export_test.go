package nn

// WithPortableGemm runs f with the assembly GEMM kernel unplugged, so the
// portable path is exercised in the same process on any platform, and
// reports whether there was an assembly kernel to unplug.
func WithPortableGemm(f func()) bool {
	old := gemmTileAsm
	gemmTileAsm = nil
	defer func() { gemmTileAsm = old }()
	f()
	return old != nil
}

// PoisonScratch makes the scratch list fill every buffer with NaN before
// it hands the buffer out, until the returned func runs. That func also
// empties the list, so no NaN a poisoned run left behind reaches a later
// unpoisoned one.
func PoisonScratch() (restore func()) {
	poison.Store(true)
	return func() {
		poison.Store(false)
		EmptyScratch()
	}
}

// EmptyScratch drops every buffer the scratch list holds.
func EmptyScratch() { scratch.Reset() }

// ScratchBytes reports the capacity, in bytes, of the buffers the scratch
// list holds.
func ScratchBytes() int { return scratch.Bytes() }
