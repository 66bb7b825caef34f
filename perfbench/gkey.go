//go:build amd64 || arm64

package main

// getg returns the address of the calling goroutine's runtime descriptor,
// which is fixed for the goroutine's life (see gkey_*.s).
func getg() uintptr

// goroutineKey identifies the calling goroutine for the span tracer. It
// costs a register read, so tracing does not perturb the call path with
// stack walks.
func goroutineKey() uint64 { return uint64(getg()) }
