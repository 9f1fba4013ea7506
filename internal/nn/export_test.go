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
