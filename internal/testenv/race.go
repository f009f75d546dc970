//go:build race

package testenv

// Race reports whether the race detector instruments this binary.
const Race = true
