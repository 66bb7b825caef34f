package transport

import (
	"bytes"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"netobjects/internal/flow"
	"netobjects/internal/wire"
)

// tcpPair connects two TCP connections over loopback: c is the dialer's
// end, peer the accepted one.
func tcpPair(t testing.TB) (c, peer Conn) {
	t.Helper()
	tcp := NewTCP()
	l, err := tcp.Listen("")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { l.Close() })
	accepted := make(chan Conn, 1)
	go func() {
		ac, err := l.Accept()
		if err == nil {
			accepted <- ac
		}
	}()
	_, addr, _ := wire.SplitEndpoint(l.Endpoint())
	c, err = tcp.Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	peer = <-accepted
	t.Cleanup(func() { c.Close(); peer.Close() })
	return c, peer
}

// TestSendToStalledTCPPeerTimesOut pins the sender-side write's deadline:
// a peer that stops reading fills the socket buffers, and the Send whose
// write then blocks must return ErrTimeout by its stream deadline rather
// than hang in the write.
func TestSendToStalledTCPPeerTimesOut(t *testing.T) {
	c, _ := tcpPair(t) // the peer end is never read
	s := NewSession(c, SessionOptions{})
	defer s.Close()
	st, err := s.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer st.Release()
	deadline := time.Now().Add(300 * time.Millisecond)
	_ = st.SetDeadline(deadline)
	payload := make([]byte, 32<<10)
	for i := 0; ; i++ {
		err = st.Send(payload)
		if err != nil {
			break
		}
		if time.Since(deadline) > 2*time.Second {
			t.Fatalf("%d sends to a stalled peer all succeeded past the deadline", i)
		}
	}
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("Send to stalled peer: %v, want ErrTimeout", err)
	}
	if late := time.Since(deadline); late > time.Second {
		t.Fatalf("Send returned %v after its deadline", late)
	}
}

// frameLog records the mux stream id (or op, for naked frames) of every
// frame written, in write order.
type frameLog struct {
	Conn
	mu     sync.Mutex
	frames []string
}

func (c *frameLog) Send(p []byte) error {
	kind := "op:" + wire.PeekOp(p).String()
	if wire.IsMux(p) {
		if id, _, err := wire.SplitMux(p); err == nil && id == 0 {
			kind = "stream0"
		} else {
			kind = "stream"
		}
	}
	c.mu.Lock()
	c.frames = append(c.frames, kind)
	c.mu.Unlock()
	return c.Conn.Send(p)
}

// TestHellosAreFirstFrames pins that sender-side writes never overtake
// the session's hellos: with senders racing NewSession, the flow and
// identity hellos on stream 0 still lead the wire.
func TestHellosAreFirstFrames(t *testing.T) {
	for round := 0; round < 20; round++ {
		c, peer := memPair(t)
		log := &frameLog{Conn: c}
		server := NewSession(peer, SessionOptions{Flow: &flow.Params{}, Accept: func(st *Stream) {
			defer st.Release()
			if frame, err := st.Recv(nil); err == nil {
				_ = st.Send(frame)
			}
		}})
		client := NewSession(log, SessionOptions{Flow: &flow.Params{}, LocalSpace: 7})
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				st, err := client.Open()
				if err != nil {
					t.Error(err)
					return
				}
				defer st.Release()
				_ = st.SetDeadline(time.Now().Add(5 * time.Second))
				if err := st.Send([]byte("hi")); err != nil {
					t.Error(err)
					return
				}
				if _, err := st.Recv(nil); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		client.Close()
		server.Close()
		log.mu.Lock()
		frames := append([]string(nil), log.frames...)
		log.mu.Unlock()
		const hellos = 2 // flow, identity
		if len(frames) < hellos+4 {
			t.Fatalf("round %d: wire order %v, want two hellos then four calls", round, frames)
		}
		for i, f := range frames {
			if (i < hellos) != (f == "stream0") {
				t.Fatalf("round %d: wire order %v, want the two hellos first", round, frames)
			}
		}
	}
}

// memPair returns the two ends of an in-memory connection.
func memPair(t testing.TB) (c, peer Conn) {
	t.Helper()
	mem := NewMem()
	l, err := mem.Listen("peer")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { l.Close() })
	accepted := make(chan Conn, 1)
	go func() {
		ac, err := l.Accept()
		if err == nil {
			accepted <- ac
		}
	}()
	c, err = mem.Dial("peer")
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	return c, <-accepted
}

// TestCloseDuringDecodeKeepsFrameUntilRelease pins the recycle rule: a
// concurrent Close (a cancellation watcher) must not recycle the frame
// the owner is still decoding, and the owner's Release must return that
// frame and any undelivered ones to the pool.
func TestCloseDuringDecodeKeepsFrameUntilRelease(t *testing.T) {
	want := bytes.Repeat([]byte("result-frame "), 40)
	client, _ := sessionPair(t, func(st *Stream) {
		defer st.Release()
		if _, err := st.Recv(nil); err != nil {
			return
		}
		_ = st.Send(want)
		_ = st.Send(want) // a second frame the owner never receives
	})
	for i := 0; i < 50; i++ {
		st, err := client.Open()
		if err != nil {
			t.Fatal(err)
		}
		_ = st.SetDeadline(time.Now().Add(5 * time.Second))
		if err := st.Send([]byte("call")); err != nil {
			t.Fatal(err)
		}
		// Both frames in the inbox before the owner takes the first.
		deadline := time.Now().Add(2 * time.Second)
		for len(st.in) < 2 && time.Now().Before(deadline) {
			time.Sleep(100 * time.Microsecond)
		}
		got, err := st.Recv(nil)
		if err != nil {
			t.Fatal(err)
		}
		held := st.last
		// The watcher fires mid-decode.
		closed := make(chan struct{})
		go func() {
			_ = st.Close()
			close(closed)
		}()
		<-closed
		// Churn the pool: a recycled frame would be handed out and
		// overwritten here.
		for j := 0; j < 64; j++ {
			bp := wire.GetBuf()
			*bp = append((*bp)[:0], bytes.Repeat([]byte{0xAA}, len(want))...)
			wire.PutBuf(bp)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("round %d: frame changed under the owner after Close", i)
		}
		if st.last != held {
			t.Fatalf("round %d: Close released the owner's frame", i)
		}
		if len(st.in) != 1 {
			t.Fatalf("round %d: %d frames in the inbox, want the unreceived one", i, len(st.in))
		}
		st.Release()
		if st.last != nil || len(st.in) != 0 || st.asm != nil {
			t.Fatalf("round %d: Release left buffers on the stream (last %v, inbox %d, asm %v)",
				i, st.last != nil, len(st.in), st.asm != nil)
		}
	}
}

// TestReleaseRecyclesPartialAssembly pins that a chunked message cut off
// by the owner's Release does not strand its assembly buffer, and that
// chunks arriving after Release are dropped rather than re-assembled.
func TestReleaseRecyclesPartialAssembly(t *testing.T) {
	p := flow.Params{ChunkSize: 4 << 10, StreamWindow: 16 << 10, SessionWindow: 1 << 20}
	got := make(chan *Stream, 1)
	client, _ := flowPair(t, p, func(c Conn) Conn {
		// Slow chunks keep the assembly partial long enough to see.
		return &slowConn{Conn: c, delay: 2 * time.Millisecond}
	}, func(st *Stream) {
		got <- st
		<-st.done
	})
	st, err := client.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer st.Release()
	_ = st.SetDeadline(time.Now().Add(time.Second))
	sendDone := make(chan error, 1)
	// Larger than the stream window: the receiver assembles eagerly, so
	// the owner sees a partial assembly until the whole message arrives.
	go func() { sendDone <- st.Send(pattern(64 << 10)) }()
	sst := <-got
	deadline := time.Now().Add(2 * time.Second)
	for {
		sst.amu.Lock()
		partial := sst.asm != nil
		sst.amu.Unlock()
		if partial {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("never observed a partial assembly")
		}
		time.Sleep(100 * time.Microsecond)
	}
	sst.Release()
	sst.amu.Lock()
	left := sst.asm
	sst.amu.Unlock()
	if left != nil {
		t.Fatal("Release left the partial assembly on the stream")
	}
	<-sendDone
	// Any chunk that arrives after Release must not start a new assembly.
	time.Sleep(20 * time.Millisecond)
	sst.amu.Lock()
	left = sst.asm
	sst.amu.Unlock()
	if left != nil {
		t.Fatal("a chunk after Release re-created the assembly")
	}
}

// TestIdleHandlersCappedAndExitOnClose pins the dispatch goroutine pool:
// a burst of concurrent inbound streams may start many handlers, but once
// it drains at most maxIdleHandlers stay parked; sequential streams reuse
// them instead of starting more; and every handler exits on close, so
// Session.Wait returns.
func TestIdleHandlersCappedAndExitOnClose(t *testing.T) {
	release := make(chan struct{})
	var hold sync.WaitGroup
	client, server := sessionPair(t, func(st *Stream) {
		defer st.Release()
		frame, err := st.Recv(nil)
		if err != nil {
			return
		}
		if string(frame) == "hold" {
			hold.Done()
			<-release
		}
		_ = st.Send(frame)
	})
	call := func(msg string) {
		st, err := client.Open()
		if err != nil {
			t.Error(err)
			return
		}
		defer st.Release()
		_ = st.SetDeadline(time.Now().Add(10 * time.Second))
		if err := st.Send([]byte(msg)); err != nil {
			t.Error(err)
			return
		}
		if _, err := st.Recv(nil); err != nil {
			t.Error(err)
		}
	}
	const burst = 4 * maxIdleHandlers
	hold.Add(burst)
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); call("hold") }()
	}
	hold.Wait() // burst handlers all busy at once
	close(release)
	wg.Wait()
	eventually(t, "idle handlers settle within the cap", func() bool {
		n := server.idle.Load()
		return n > 0 && n <= maxIdleHandlers
	})
	if n := server.idle.Load(); n > maxIdleHandlers {
		t.Fatalf("%d idle handlers, cap %d", n, maxIdleHandlers)
	}
	base := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		call("echo")
	}
	if grown := runtime.NumGoroutine() - base; grown > 2 {
		t.Fatalf("sequential streams started %d goroutines, want parked handlers reused", grown)
	}
	server.Close()
	waited := make(chan struct{})
	go func() { server.Wait(); close(waited) }()
	select {
	case <-waited:
	case <-time.After(5 * time.Second):
		t.Fatal("Session.Wait did not return: parked handlers outlived the session")
	}
	if n := server.idle.Load(); n != 0 {
		t.Fatalf("%d handlers still counted idle after close", n)
	}
}

// BenchmarkSessionRoundTrip measures the bare session exchange the
// runtime's calls ride on — open a stream, send a small request, receive
// the echo, release — without any of core on either side, over the
// in-memory and TCP transports with flow control on (the runtime's
// default).
func BenchmarkSessionRoundTrip(b *testing.B) {
	for _, tr := range []string{"inmem", "tcp"} {
		b.Run(tr, func(b *testing.B) {
			c, peer := memPair(b)
			if tr == "tcp" {
				c, peer = tcpPair(b)
			}
			echo := func(st *Stream) {
				defer st.Release()
				frame, err := st.Recv(nil)
				if err != nil {
					return
				}
				_ = st.Send(frame)
			}
			server := NewSession(peer, SessionOptions{Accept: echo, Flow: &flow.Params{}})
			client := NewSession(c, SessionOptions{Flow: &flow.Params{}})
			defer func() { client.Close(); server.Close() }()
			req := bytes.Repeat([]byte{0x5A}, 64)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st, err := client.Open()
				if err != nil {
					b.Fatal(err)
				}
				if err := st.Send(req); err != nil {
					b.Fatal(err)
				}
				if _, err := st.Recv(nil); err != nil {
					b.Fatal(err)
				}
				st.Release()
			}
		})
	}
}
