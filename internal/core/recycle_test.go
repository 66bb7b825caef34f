package core

import (
	"bytes"
	"context"
	"math/rand/v2"
	"testing"
	"time"
)

// blob returns a fixed pattern whose every byte depends on its position,
// so a result decoded from a recycled (overwritten) frame cannot pass.
type blob struct{}

func (*blob) Get(n int) ([]byte, string) {
	b := blobPattern(n)
	return b, string(b)
}

func blobPattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7 + i>>8)
	}
	return b
}

// TestCancelMidDecodeKeepsResult races cancellation against result
// decoding on the full call path. The cancel watcher closes the call's
// stream while the caller may be decoding the result frame; the frame
// must stay the caller's until it releases the stream, so every call
// either fails with the cancellation or returns the exact result.
func TestCancelMidDecodeKeepsResult(t *testing.T) {
	tn := newTestNet(t)
	owner := tn.space("owner", nil)
	client := tn.space("client", nil)
	ref, err := owner.Export(&blob{})
	if err != nil {
		t.Fatal(err)
	}
	cref := handoff(t, ref, client)
	const n = 3000
	want := blobPattern(n)
	rng := rand.New(rand.NewPCG(1, 2))
	var ok, cancelled int
	for i := 0; i < 300; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		fire := time.Duration(rng.IntN(300)) * time.Microsecond
		timer := time.AfterFunc(fire, cancel)
		out, err := cref.CallCtx(ctx, "Get", n)
		timer.Stop()
		cancel()
		if err != nil {
			cancelled++
			continue
		}
		b, s := out[0].([]byte), out[1].(string)
		if !bytes.Equal(b, want) || s != string(want) {
			t.Fatalf("call %d: result corrupted after a concurrent cancel", i)
		}
		ok++
	}
	t.Logf("%d calls completed, %d cancelled", ok, cancelled)
}
