// Package transport provides the communication layer of the network
// objects runtime: an abstraction over byte-stream transports, concrete
// TCP and in-memory implementations, and a per-peer session cache.
//
// The original system ran over multiple transports (DECnet, TCP, shared
// memory) selected by the address prefix of an endpoint; this package keeps
// that design. An endpoint is a string "proto:address"; a Registry maps
// protocol names to Transport implementations and dials whichever endpoint
// of a wireRep it recognizes first. Connections carry whole frames (see
// package wire).
//
// All peer traffic rides the multiplexed Session: one connection per peer
// link carries any number of interleaved exchanges, each on its own Stream
// tagged by a wire-level mux envelope. (The original SRC RPC checkout
// discipline — one outstanding request per connection — has been removed;
// internal/baseline/srcrpc keeps a self-contained copy for comparison.)
package transport

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"netobjects/internal/wire"
)

// Transport errors.
var (
	// ErrUnknownProto reports an endpoint whose protocol has no registered
	// transport.
	ErrUnknownProto = errors.New("transport: unknown protocol")
	// ErrClosed reports use of a closed connection, listener or pool.
	ErrClosed = errors.New("transport: closed")
	// ErrTimeout reports an I/O deadline expiring.
	ErrTimeout = errors.New("transport: timeout")
	// ErrNoEndpoint reports that none of a wireRep's endpoints could be
	// dialed.
	ErrNoEndpoint = errors.New("transport: no dialable endpoint")
)

// errUnsent marks a Send whose deadline expired before any byte of its
// frame reached the connection. The byte stream is intact, so a session
// need not fail for it.
var errUnsent = errors.New("transport: frame not sent")

// Conn is a framed, synchronous message connection. A Conn is not safe for
// concurrent use; the runtime wraps each peer link's connection in a
// Session whose writer and reader serialize access.
type Conn interface {
	// Send transmits one frame.
	Send(payload []byte) error
	// Recv receives one frame, reusing scratch when it has capacity. The
	// returned slice may alias scratch and is valid until the next Recv.
	Recv(scratch []byte) ([]byte, error)
	// SetDeadline bounds subsequent Send and Recv operations; the zero
	// time removes the bound.
	SetDeadline(t time.Time) error
	// Close releases the connection. Close is safe to call multiple times
	// and concurrently with Send/Recv, which it causes to fail.
	Close() error
	// RemoteLabel describes the peer for logs.
	RemoteLabel() string
}

// Listener accepts inbound connections for one endpoint.
type Listener interface {
	// Accept waits for the next inbound connection.
	Accept() (Conn, error)
	// Close stops the listener; blocked Accepts return ErrClosed.
	Close() error
	// Endpoint returns the full endpoint string peers should dial,
	// e.g. "tcp:127.0.0.1:40213".
	Endpoint() string
}

// Transport creates listeners and connections for one protocol.
type Transport interface {
	// Proto returns the protocol name used as the endpoint prefix.
	Proto() string
	// Listen opens a listener on a transport-specific address; an empty
	// address asks the transport to pick one.
	Listen(addr string) (Listener, error)
	// Dial connects to a transport-specific address.
	Dial(addr string) (Conn, error)
}

// writeDeadliner is implemented by connections whose writes can be
// bounded separately from their reads (TCP). A session writes from many
// goroutines while its reader waits without a bound, so it bounds each
// write by the writing stream's deadline through this method; on other
// connections a write to a peer that stopped reading is bounded only by
// the connection itself.
type writeDeadliner interface {
	// SetWriteDeadline bounds subsequent Sends; the zero time removes the
	// bound.
	SetWriteDeadline(t time.Time) error
}

// HealthChecker is optionally implemented by connections that can
// cheaply tell whether their peer is still attached. Sessions consult it
// (along with their own reader state) before being reused, so a peer that
// reset mid-idle (a crash, a chaos-injected reset) does not surface as a
// spurious failure on the first exchange of the next call. The check
// must be cheap and non-blocking — a state inspection, never an I/O
// round trip. Connections that cannot know (plain TCP without reading)
// simply do not implement it.
type HealthChecker interface {
	// Healthy reports whether the connection is still usable.
	Healthy() bool
}

// Healthy reports whether c is known-good: true for connections that do
// not implement HealthChecker (no information is treated as healthy,
// preserving the old pool behaviour for opaque transports).
func Healthy(c Conn) bool {
	if h, ok := c.(HealthChecker); ok {
		return h.Healthy()
	}
	return true
}

// ContextDialer is optionally implemented by transports whose dialing can
// be bounded by a context; Registry.DialAnyContext prefers it over Dial.
// Transports with instantaneous dialing (in-memory) need not implement it.
type ContextDialer interface {
	// DialContext connects to a transport-specific address, abandoning
	// the attempt when ctx is cancelled or its deadline expires.
	DialContext(ctx context.Context, addr string) (Conn, error)
}

// Registry maps protocol names to transports. A zero Registry is empty and
// ready to use; registries are safe for concurrent use.
type Registry struct {
	mu      sync.RWMutex
	byProto map[string]Transport
}

// NewRegistry returns a registry containing the given transports.
func NewRegistry(ts ...Transport) *Registry {
	r := &Registry{}
	for _, t := range ts {
		r.Register(t)
	}
	return r
}

// Register adds t, replacing any transport previously registered for the
// same protocol.
func (r *Registry) Register(t Transport) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.byProto == nil {
		r.byProto = make(map[string]Transport)
	}
	r.byProto[t.Proto()] = t
}

// Lookup returns the transport for proto, if any.
func (r *Registry) Lookup(proto string) (Transport, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	t, ok := r.byProto[proto]
	return t, ok
}

// Listen opens a listener for a full endpoint string.
func (r *Registry) Listen(endpoint string) (Listener, error) {
	proto, addr, err := wire.SplitEndpoint(endpoint)
	if err != nil {
		return nil, err
	}
	t, ok := r.Lookup(proto)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownProto, proto)
	}
	return t.Listen(addr)
}

// Dial connects to a full endpoint string.
func (r *Registry) Dial(endpoint string) (Conn, error) {
	proto, addr, err := wire.SplitEndpoint(endpoint)
	if err != nil {
		return nil, err
	}
	t, ok := r.Lookup(proto)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownProto, proto)
	}
	return t.Dial(addr)
}

// DialAny dials the first reachable endpoint from the list, returning the
// connection and the endpoint that worked. Endpoints whose protocol is not
// registered are skipped; the last dial error is reported if all fail.
func (r *Registry) DialAny(endpoints []string) (Conn, string, error) {
	return r.DialAnyContext(context.Background(), endpoints)
}

// DialAnyContext is DialAny bounded by a context: transports implementing
// ContextDialer abandon connection establishment when ctx is done, so a
// call's deadline covers dialing, not just the exchange. Transports
// without context support fall back to their own dial timeout.
func (r *Registry) DialAnyContext(ctx context.Context, endpoints []string) (Conn, string, error) {
	var lastErr error
	for _, ep := range endpoints {
		if err := ctx.Err(); err != nil {
			return nil, "", err
		}
		proto, addr, err := wire.SplitEndpoint(ep)
		if err != nil {
			lastErr = err
			continue
		}
		t, ok := r.Lookup(proto)
		if !ok {
			continue
		}
		var c Conn
		if cd, ok := t.(ContextDialer); ok {
			c, err = cd.DialContext(ctx, addr)
		} else {
			c, err = t.Dial(addr)
		}
		if err != nil {
			lastErr = err
			continue
		}
		return c, ep, nil
	}
	if lastErr == nil {
		lastErr = ErrNoEndpoint
	}
	return nil, "", fmt.Errorf("%w (tried %d endpoints): %v", ErrNoEndpoint, len(endpoints), lastErr)
}
