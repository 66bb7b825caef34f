package core

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"netobjects/internal/pickle"
	"netobjects/internal/transport"
	"netobjects/internal/wire"
)

// tcpPair builds an owner/client pair connected over real loopback TCP.
func tcpPair(t *testing.T, opt func(*Options)) (owner, client *Space) {
	t.Helper()
	tcp := transport.NewTCP()
	mk := func(name string) *Space {
		opts := Options{
			Name:         name,
			Transports:   []transport.Transport{tcp},
			Registry:     pickle.NewRegistry(),
			CallTimeout:  10 * time.Second,
			PingInterval: time.Hour,
		}
		if opt != nil {
			opt(&opts)
		}
		sp, err := NewSpace(opts)
		if err != nil {
			t.Fatalf("space %s: %v", name, err)
		}
		t.Cleanup(func() { _ = sp.Close() })
		return sp
	}
	return mk("owner"), mk("client")
}

// TestMuxSingleConnectionTCP is the headline property of the session
// layer: 64 concurrent calls between two spaces over TCP share exactly
// one connection per direction — one outbound session on the client, one
// inbound session on the owner, and no reverse dial at all.
func TestMuxSingleConnectionTCP(t *testing.T) {
	owner, client := tcpPair(t, nil)

	ref, err := owner.Export(&counter{})
	if err != nil {
		t.Fatal(err)
	}
	cref := handoff(t, ref, client)

	const callers = 64
	var wg sync.WaitGroup
	errc := make(chan error, callers)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				if _, err := cref.Call("Incr", int64(1)); err != nil {
					errc <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	got, err := cref.Call("Value")
	if err != nil {
		t.Fatal(err)
	}
	if got[0].(int64) != callers*4 {
		t.Fatalf("counter = %d, want %d", got[0].(int64), callers*4)
	}

	// Client side: one outbound session, dialed exactly once (the
	// import's dirty call opened it; everything since shared it).
	if n := client.pool.SessionCount(); n != 1 {
		t.Fatalf("client outbound sessions = %d, want 1", n)
	}
	if n := client.metrics.PoolMisses.Load(); n != 1 {
		t.Fatalf("client dials = %d, want 1", n)
	}
	// Owner side: one inbound session, and it never dialed back — the
	// whole conversation, replies included, rode the client's connection.
	owner.mu.Lock()
	inbound := len(owner.muxServers)
	owner.mu.Unlock()
	if inbound != 1 {
		t.Fatalf("owner inbound sessions = %d, want 1", inbound)
	}
	if n := owner.metrics.PoolMisses.Load(); n != 0 {
		t.Fatalf("owner dials = %d, want 0", n)
	}
}

// muxBlocker's Wait parks until the test closes release; it lets a test
// hold a call in flight on the shared session.
type muxBlocker struct {
	release chan struct{}
}

func (b *muxBlocker) Wait() error  { <-b.release; return nil }
func (b *muxBlocker) Quick() error { return nil }

// TestMuxCancelSharedLink cancels one in-flight call on the shared
// session and checks that the link, and a neighbouring call, survive:
// cancellation closes the stream, never the connection.
func TestMuxCancelSharedLink(t *testing.T) {
	owner, client := tcpPair(t, nil)

	b := &muxBlocker{release: make(chan struct{})}
	ref, err := owner.Export(b)
	if err != nil {
		t.Fatal(err)
	}
	cref := handoff(t, ref, client)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := cref.CallCtx(ctx, "Wait")
		done <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the call reach the owner
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled call returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled call never returned")
	}
	close(b.release) // unpark the server-side handler

	// The shared session must still be the same, healthy connection.
	if _, err := cref.Call("Quick"); err != nil {
		t.Fatalf("call after cancel: %v", err)
	}
	if n := client.pool.SessionCount(); n != 1 {
		t.Fatalf("client outbound sessions = %d, want 1", n)
	}
	if n := client.metrics.PoolMisses.Load(); n != 1 {
		t.Fatalf("client dials = %d, want 1 (cancel must not redial)", n)
	}
}

// TestBareCallClosesConnection pins the one wire protocol: every peer
// opens its connection with a mux-wrapped session hello, so a space
// closes a connection whose first frame is a bare (non-mux) call. The
// call is not dispatched, and no goroutine is left serving the link.
func TestBareCallClosesConnection(t *testing.T) {
	tn := newTestNet(t)
	owner := tn.space("owner", nil)
	cnt := &counter{}
	ref, err := owner.Export(cnt)
	if err != nil {
		t.Fatal(err)
	}
	w, err := ref.WireRep()
	if err != nil {
		t.Fatal(err)
	}
	args, err := owner.pickler.MarshalAnySession(nil, []any{int64(1)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	c, err := tn.mem.Dial(strings.TrimPrefix(w.Endpoints[0], "inmem:"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_ = c.SetDeadline(time.Now().Add(5 * time.Second))
	if err := c.Send(wire.Marshal(nil, &wire.Call{Obj: w.Index, Method: "Incr", Args: args, ID: 1})); err != nil {
		t.Fatal(err)
	}
	frame, err := c.Recv(nil)
	if err == nil {
		t.Fatalf("space answered a bare call with a %v frame", wire.PeekOp(frame))
	}
	if errors.Is(err, transport.ErrTimeout) {
		t.Fatal("space neither answered nor closed the connection")
	}
	_ = c.Close()
	cnt.mu.Lock()
	n := cnt.n
	cnt.mu.Unlock()
	if n != 0 {
		t.Fatalf("bare call ran the method: counter = %d", n)
	}
	if got := owner.metrics.CallsServed.Load(); got != 0 {
		t.Fatalf("CallsServed = %d, want 0", got)
	}
	if !waitFor(5*time.Second, func() bool { return runtime.NumGoroutine() <= before }) {
		t.Fatalf("goroutines: %d before the bare call, %d after its connection closed", before, runtime.NumGoroutine())
	}
}
