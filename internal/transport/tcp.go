package transport

import (
	"bufio"
	"context"
	"errors"
	"net"
	"time"

	"netobjects/internal/wire"
)

// TCP is the TCP transport. Its endpoints look like "tcp:host:port".
type TCP struct {
	// DialTimeout bounds connection establishment; zero means 10 seconds.
	DialTimeout time.Duration
}

// NewTCP returns a TCP transport with default settings.
func NewTCP() *TCP { return &TCP{} }

// Proto returns "tcp".
func (t *TCP) Proto() string { return "tcp" }

// Listen opens a TCP listener. An empty address listens on an ephemeral
// port on the loopback interface, which is what tests and single-machine
// deployments want; production addresses are passed explicitly.
func (t *TCP) Listen(addr string) (Listener, error) {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &tcpListener{l: l}, nil
}

// Dial connects to a TCP address.
func (t *TCP) Dial(addr string) (Conn, error) {
	return t.DialContext(context.Background(), addr)
}

// DialContext connects to a TCP address, bounded by both the transport's
// DialTimeout and the context's deadline or cancellation, whichever is
// tighter.
func (t *TCP) DialContext(ctx context.Context, addr string) (Conn, error) {
	timeout := t.DialTimeout
	if timeout == 0 {
		timeout = 10 * time.Second
	}
	d := net.Dialer{Timeout: timeout}
	c, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	return newTCPConn(c), nil
}

type tcpListener struct {
	l net.Listener
}

func (tl *tcpListener) Accept() (Conn, error) {
	c, err := tl.l.Accept()
	if err != nil {
		if errors.Is(err, net.ErrClosed) {
			return nil, ErrClosed
		}
		return nil, err
	}
	return newTCPConn(c), nil
}

func (tl *tcpListener) Close() error { return tl.l.Close() }

func (tl *tcpListener) Endpoint() string {
	return wire.JoinEndpoint("tcp", tl.l.Addr().String())
}

// tcpConn adapts a net.Conn to the framed Conn interface. Each frame is
// assembled with its length prefix in a pooled buffer and written with
// one Write, so a small frame costs one syscall.
type tcpConn struct {
	c  net.Conn
	br *bufio.Reader
}

func newTCPConn(c net.Conn) *tcpConn {
	if tc, ok := c.(*net.TCPConn); ok {
		// Calls are latency-sensitive request/response pairs.
		_ = tc.SetNoDelay(true)
	}
	return &tcpConn{
		c:  c,
		br: bufio.NewReaderSize(c, 32<<10),
	}
}

// Send writes one frame. A write whose deadline expired before its first
// byte left leaves the byte stream intact and says so with errUnsent; any
// other failure may have cut a frame short.
func (tc *tcpConn) Send(payload []byte) error {
	bp := wire.GetBuf()
	buf, err := wire.AppendFrame((*bp)[:0], payload)
	if err != nil {
		wire.PutBuf(bp)
		return err
	}
	*bp = buf
	n, err := tc.c.Write(buf)
	wire.PutBuf(bp)
	err = mapNetErr(err)
	if n == 0 && errors.Is(err, ErrTimeout) {
		return errors.Join(errUnsent, err)
	}
	return err
}

func (tc *tcpConn) Recv(scratch []byte) ([]byte, error) {
	b, err := wire.ReadFrame(tc.br, scratch)
	return b, mapNetErr(err)
}

func (tc *tcpConn) SetDeadline(t time.Time) error { return tc.c.SetDeadline(t) }

func (tc *tcpConn) SetWriteDeadline(t time.Time) error { return tc.c.SetWriteDeadline(t) }

func (tc *tcpConn) Close() error { return tc.c.Close() }

func (tc *tcpConn) RemoteLabel() string { return "tcp:" + tc.c.RemoteAddr().String() }

// mapNetErr normalizes net package errors onto the transport error
// vocabulary so callers can test with errors.Is.
func mapNetErr(err error) error {
	if err == nil {
		return nil
	}
	var nerr net.Error
	if errors.As(err, &nerr) && nerr.Timeout() {
		return errors.Join(ErrTimeout, err)
	}
	if errors.Is(err, net.ErrClosed) {
		return errors.Join(ErrClosed, err)
	}
	return err
}
