package tensor

// Poison makes every arena fill each buffer with NaN before it hands the
// buffer out, until the returned func runs.
func Poison() (restore func()) {
	poison.Store(true)
	return func() { poison.Store(false) }
}
