//go:build !linux

package loop

// newTimer returns the portable timer: elsewhere than Linux the runtime's
// own timers are the one wall timer there is.
func newTimer(wake func()) Timer { return afterFunc(wake) }
