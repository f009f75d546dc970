//go:build !race

// Package testenv tells tests what kind of binary they run in.
package testenv

// Race reports whether the race detector instruments this binary.
// Allocation budgets skip themselves under it: sync.Pool then drops a
// quarter of all Puts at random, so a pooled path allocates by design.
const Race = false
