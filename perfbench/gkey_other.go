//go:build !amd64 && !arm64

package main

import (
	"bytes"
	"runtime"
	"strconv"
)

// goroutineKey identifies the calling goroutine for the span tracer by
// parsing its id from the stack header. It walks the whole stack, so on
// these architectures tracing costs several microseconds per event.
func goroutineKey() uint64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		b = b[:i]
	}
	id, _ := strconv.ParseUint(string(b), 10, 64)
	return id
}
