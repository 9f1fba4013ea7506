//go:build !linux

package parallel

// osYield is a no-op where the thread yield is not wired up: a spin
// then yields only to goroutines.
func osYield() {}
