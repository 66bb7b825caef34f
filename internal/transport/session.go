package transport

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"netobjects/internal/flow"
	"netobjects/internal/obs"
	"netobjects/internal/wire"
)

// This file implements multiplexed peer sessions — the departure from the
// SRC RPC discipline Network Objects inherited. The original runtime
// checked a connection out of the pool for the duration of one call, so N
// concurrent calls to a peer cost N connections. A Session instead owns a
// single Conn and interleaves any number of logical exchanges on it: a
// session write lock serializes outbound frames, a demux-reader goroutine
// routes inbound frames to waiting streams by the id in their mux
// envelope (see wire.AppendMuxHeader), and responses complete in whatever
// order the peer finishes them — no head-of-line blocking on call
// completion. Head-of-line blocking on frame *transmission* remains, as
// it must on a byte stream.
//
// Writes take one of two paths. A small frame is written by the sending
// goroutine itself under the write lock, so a call costs no goroutine
// handoff on the way out. Everything that needs a scheduler is written by
// the session's writer goroutine, which takes the same lock once per
// frame: the stream-0 hellos (the lock is held from NewSession until they
// are out, so they are always the first frames), flow-control frames and
// credit-gated data chunks. The lock hands off in arrival order, so a
// cancel waits behind at most the one data chunk being written.
//
// Inbound streams opened by the peer are served by handler goroutines the
// session keeps parked between streams (up to maxIdleHandlers), so a
// dispatch neither starts a goroutine nor regrows its stack per call.
//
// A Stream is one logical exchange on a session and implements Conn, so
// the runtime's call code (send request, await response, acknowledge) runs
// unchanged whether it holds a real checked-out connection or a stream on
// a shared link. Closing a stream abandons only that exchange: late
// responses to it are recognized by their id and dropped, and every other
// stream on the session is untouched — this is what lets a cancelled call
// stop waiting without poisoning the link for its neighbours. The owner of
// an exchange ends it with Release, which also returns the stream's
// receive buffers to the pool.

// maxIdleHandlers caps the accept handlers a session keeps parked between
// inbound streams. A burst of concurrent dispatches starts as many
// handlers as it needs; once it drains, all but this many exit.
const maxIdleHandlers = 16

// streamInbox is a stream's inbound frame buffer. Exchanges are short
// (request, response, maybe an ack), so a small buffer suffices; a peer
// flooding one id beyond it has its excess dropped like a lossy network.
const streamInbox = 16

// SessionOptions configures a Session.
type SessionOptions struct {
	// Accept, when non-nil, is invoked on a handler goroutine of the
	// session for every stream the peer opens (a frame with an unknown
	// id); handlers are reused across streams. Server sessions
	// set it to their dispatch entry; client sessions leave it nil, which
	// makes unknown ids late responses to abandoned exchanges, dropped.
	Accept func(*Stream)
	// Preread is a frame already read off the connection before the
	// session took over — the frame whose mux envelope made the receiver
	// switch the connection into session mode. It is demultiplexed before
	// any other inbound frame.
	Preread []byte
	// Flow sets the session's credit-based flow control, chunked
	// large-payload streaming and keepalives (see internal/flow). Every
	// session is flow-controlled; nil and zero fields take the package
	// defaults.
	Flow *flow.Params
	// Metrics, when non-nil, receives the session's flow-control and
	// keepalive counters.
	Metrics *obs.Metrics
	// LocalSpace, when nonzero, is the space identity this endpoint
	// advertises on stream 0 (wire.PeerHello). A peer that has identified
	// itself lets the collector treat this session's health as proof of
	// that space's liveness.
	LocalSpace wire.SpaceID
	// OnKeepalive, when non-nil, is invoked with the peer's advertised
	// space id on every keepalive exchange (inbound ping or pong) from an
	// identified peer. The collector uses it to stamp lease renewals off
	// the frames the session already sends, instead of minting renewal
	// calls of its own. Called on the session's reader goroutine — it must
	// not block.
	OnKeepalive func(wire.SpaceID)
}

// Session multiplexes logical streams over one Conn. It assumes exclusive
// ownership of the connection: at most one goroutine at a time sends (the
// holder of the write lock) and exactly one (the demux reader) receives,
// which is the concurrency contract every Conn implementation supports.
type Session struct {
	c      Conn
	accept func(*Stream)

	// flow is the session's flow-control state. See session_flow.go.
	flow *flowState

	// wlock is the write lock: a one-slot semaphore, so a sender can give
	// up waiting at its deadline, and blocked senders are served in
	// arrival order. wd is the connection's write-deadline control (nil
	// when it has none) and wdl the write deadline last set on it, in Unix
	// nanoseconds (0 = none); both are guarded by wlock.
	wlock chan struct{}
	wd    writeDeadliner
	wdl   int64

	done chan struct{}

	// handoff passes a fresh inbound stream to a parked handler; idle
	// counts the handlers parked (or about to park) on it.
	handoff chan *Stream
	idle    atomic.Int32

	mu      sync.Mutex
	streams map[uint64]*Stream
	closed  bool
	cause   error

	loops    sync.WaitGroup
	handlers sync.WaitGroup

	bytesSent atomic.Uint64
	bytesRecv atomic.Uint64

	// promiseIDs allocates session-scoped promise ids for pipelined calls
	// and onewaySeq numbers this session's outbound one-way calls; both
	// belong to the session because their scope is exactly its lifetime —
	// the peer's completion table and one-way lane die with the session.
	promiseIDs atomic.Uint64
	onewaySeq  atomic.Uint64

	// peerSpace is the space id the peer advertised in its PeerHello
	// (zero until it arrives).
	peerSpace atomic.Uint64

	// onKeepalive, when non-nil, fires on keepalive exchanges with an
	// identified peer (see SessionOptions.OnKeepalive).
	onKeepalive func(wire.SpaceID)
}

// SessionStats is a point-in-time snapshot of one session's load, for the
// per-link gauges and the debug page.
type SessionStats struct {
	// InFlight is the number of open streams (exchanges awaiting their
	// response).
	InFlight int
	// BytesSent and BytesRecv count wire bytes through the session,
	// envelopes included.
	BytesSent uint64
	BytesRecv uint64
	// PeerFlow reports that the peer's hello has arrived; until then a
	// large send waits for it.
	PeerFlow bool
	// SendWindow is the remaining session-level send credit in bytes and
	// FlowQueued the data bytes queued awaiting credit or the writer;
	// FlowStalls counts times the writer found data queued but nothing
	// sendable for lack of credit.
	SendWindow int64
	FlowQueued int64
	FlowStalls uint64
}

// NewSession wraps c in a session and starts its writer and demux-reader
// goroutines. The session owns c from here on: closing the session closes
// the connection, and a connection error tears the session down.
func NewSession(c Conn, opts SessionOptions) *Session {
	var fp flow.Params
	if opts.Flow != nil {
		fp = *opts.Flow
	}
	s := &Session{
		c:           c,
		accept:      opts.Accept,
		flow:        newFlowState(fp.WithDefaults(), opts.Metrics),
		wlock:       make(chan struct{}, 1),
		done:        make(chan struct{}),
		handoff:     make(chan *Stream),
		streams:     make(map[uint64]*Stream),
		onKeepalive: opts.OnKeepalive,
	}
	s.wd, _ = c.(writeDeadliner)
	// Advertise our receive windows before anything else is written: the
	// hello is the session's first frame, so a receiving server switches
	// into session mode on it and the peer learns our windows as early as
	// possible.
	p := s.flow.params
	hellos := []*[]byte{stream0Frame(&wire.SessHello{
		StreamWindow:  uint64(p.StreamWindow),
		SessionWindow: uint64(p.SessionWindow),
		ChunkSize:     uint64(p.ChunkSize),
	})}
	if opts.LocalSpace != 0 {
		// Identify ourselves on stream 0 so the peer's collector can fold
		// its liveness traffic for us onto this session's keepalives.
		hellos = append(hellos, stream0Frame(&wire.PeerHello{Space: opts.LocalSpace}))
	}
	// Hold the write lock until the writer has sent the hellos, so no
	// sender can put a frame on the wire ahead of them.
	s.wlock <- struct{}{}
	loops := 2
	if s.flow.ka != nil {
		loops++
	}
	s.loops.Add(loops)
	go s.writeLoop(hellos)
	go s.readLoop(opts.Preread)
	if s.flow.ka != nil {
		go s.keepaliveLoop()
	}
	return s
}

// stream0Frame builds a hello, mux-wrapped on the reserved stream 0.
func stream0Frame(m wire.Message) *[]byte {
	inner := wire.Marshal(nil, m)
	bp := wire.GetBuf()
	*bp = append(wire.AppendMuxHeader((*bp)[:0], 0), inner...)
	return bp
}

// onStream0 handles one stream-0 control message: the peer-identity
// hello lands in the session itself, the flow hello in the flow state.
// Anything else is ignored.
func (s *Session) onStream0(payload []byte) {
	msg, err := wire.Unmarshal(payload)
	if err != nil {
		return
	}
	switch h := msg.(type) {
	case *wire.PeerHello:
		s.peerSpace.Store(uint64(h.Space))
	case *wire.SessHello:
		s.flow.onHello(h)
	}
}

// PeerSpace reports the space id the peer advertised on this session,
// or zero when the peer has not (yet) identified itself.
func (s *Session) PeerSpace() wire.SpaceID {
	return wire.SpaceID(s.peerSpace.Load())
}

// KeepaliveHealthy reports whether an active session keepalive is
// currently confirming the peer: the keepalive is running, the peer's
// hello has arrived, and the connection does not already know the peer is
// gone (a crashed peer's connection can say so before the reader has torn
// the session down). This is the strong liveness signal collector
// traffic may be subsumed by — Healthy() alone falls back to a connection
// probe, which cannot distinguish a hung peer process from a live one.
func (s *Session) KeepaliveHealthy() bool {
	select {
	case <-s.done:
		return false
	default:
	}
	f := s.flow
	return f.ka != nil && f.peerOK.Load() && Healthy(s.c)
}

// notifyKeepalive fires the OnKeepalive callback for an identified peer.
// A peer that has not identified itself has no space id to stamp a lease
// for.
func (s *Session) notifyKeepalive() {
	if s.onKeepalive == nil {
		return
	}
	if peer := s.PeerSpace(); peer != 0 {
		s.onKeepalive(peer)
	}
}

// PokeKeepalive nudges an immediate keepalive probe onto a healthy
// session, off the regular tick schedule, and reports whether one was
// queued. The lease renewer uses it to fold a renewal into the keepalive
// exchange: the pong's arrival stamps the peer's lease table without a
// renewal call ever being sent.
func (s *Session) PokeKeepalive() bool {
	if !s.KeepaliveHealthy() {
		return false
	}
	f := s.flow
	f.queuePing(f.ka.Probe())
	return true
}

// Open starts a new stream with a fresh process-wide unique id.
func (s *Session) Open() (*Stream, error) { return s.OpenID(obs.NextCallID()) }

// OpenID starts a new stream with the caller's id — the runtime uses the
// call's correlation id, so the frame tag and the cancellation handle are
// one and the same. The id must be nonzero and not currently open on this
// session.
func (s *Session) OpenID(id uint64) (*Stream, error) {
	if id == 0 {
		return nil, errors.New("transport: zero stream id")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, s.closeErrLocked()
	}
	if _, dup := s.streams[id]; dup {
		return nil, fmt.Errorf("transport: stream id %d already open", id)
	}
	return s.newStreamLocked(id), nil
}

func (s *Session) newStreamLocked(id uint64) *Stream {
	st := &Stream{s: s, id: id, in: make(chan inMsg, streamInbox), done: make(chan struct{}),
		ledger: flow.NewRecvLedger(s.flow.params.StreamWindow)}
	s.streams[id] = st
	return st
}

func (s *Session) removeStream(id uint64) {
	s.mu.Lock()
	delete(s.streams, id)
	s.mu.Unlock()
}

// fail tears the session down once: every stream's pending Send and Recv
// fails with ErrClosed (wrapping cause), and the connection is closed.
func (s *Session) fail(cause error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.cause = cause
	s.mu.Unlock()
	close(s.done)
	s.flow.sched.Fail(s.closeErr())
	_ = s.c.Close()
}

// Close tears the session down. All streams fail with ErrClosed. Safe to
// call multiple times and concurrently with stream use.
func (s *Session) Close() error {
	s.fail(ErrClosed)
	return nil
}

// Done is closed when the session is torn down.
func (s *Session) Done() <-chan struct{} { return s.done }

// Wait blocks until the session's goroutines — writer, demux reader, and
// accept handlers, busy or parked — have finished. Serving loops use it
// so a space's shutdown can wait for inbound dispatches.
func (s *Session) Wait() {
	s.loops.Wait()
	s.handlers.Wait()
}

// closeErrLocked renders the teardown cause as an error satisfying
// errors.Is(err, ErrClosed).
func (s *Session) closeErrLocked() error {
	if s.cause == nil || errors.Is(s.cause, ErrClosed) {
		return ErrClosed
	}
	return fmt.Errorf("%w: session failed: %v", ErrClosed, s.cause)
}

func (s *Session) closeErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closeErrLocked()
}

// Healthy reports whether the session can still carry traffic, so a
// session cache can decide between reuse and redial. Once the peer's
// hello has arrived the session keepalive owns liveness — a dead peer
// fails the session within two intervals — so the per-call connection
// probe runs only before then, or with keepalives off.
func (s *Session) Healthy() bool {
	select {
	case <-s.done:
		return false
	default:
	}
	if f := s.flow; f.ka != nil && f.peerOK.Load() {
		return true
	}
	return Healthy(s.c)
}

// Label describes the session's peer for logs and the debug page.
func (s *Session) Label() string { return s.c.RemoteLabel() }

// NextPromiseID allocates a fresh session-scoped promise id for a
// pipelined call. Ids are never reused within a session; the peer's
// completion table is keyed by them.
func (s *Session) NextPromiseID() uint64 { return s.promiseIDs.Add(1) }

// NextOneWaySeq allocates the next one-way sequence number (1-based),
// fixing the call's position in the peer's ordered one-way lane.
func (s *Session) NextOneWaySeq() uint64 { return s.onewaySeq.Add(1) }

// OneWaysSent reports how many one-way calls have been allocated on this
// session — the Barrier value for a pipelined call that must order after
// them.
func (s *Session) OneWaysSent() uint64 { return s.onewaySeq.Load() }

// Stats snapshots the session's load.
func (s *Session) Stats() SessionStats {
	s.mu.Lock()
	inflight := len(s.streams)
	s.mu.Unlock()
	f := s.flow
	return SessionStats{
		InFlight:   inflight,
		BytesSent:  s.bytesSent.Load(),
		BytesRecv:  s.bytesRecv.Load(),
		PeerFlow:   f.peerOK.Load(),
		SendWindow: f.sched.SessAvail(),
		FlowQueued: f.sched.QueuedBytes(),
		FlowStalls: f.sched.Stalls(),
	}
}

// lockWrite takes the write lock for the writer goroutine, which waits
// without a deadline; it reports false once the session is torn down.
func (s *Session) lockWrite() bool {
	select {
	case s.wlock <- struct{}{}:
		return true
	case <-s.done:
		return false
	}
}

func (s *Session) unlockWrite() { <-s.wlock }

// writeLocked writes one frame; the caller holds the write lock. d is the
// writing stream's deadline in Unix nanoseconds (0 = none). A deadline
// that has already passed fails with errUnsent before anything is
// written. On a connection with a write deadline d also bounds the write,
// so a peer that stops reading cannot hold a sender past its deadline;
// the reader is not affected.
func (s *Session) writeLocked(frame []byte, d int64) error {
	if d != 0 && time.Now().UnixNano() >= d {
		return errors.Join(ErrTimeout, errUnsent)
	}
	if s.wd != nil && d != s.wdl {
		var t time.Time
		if d != 0 {
			t = time.Unix(0, d)
		}
		if err := s.wd.SetWriteDeadline(t); err != nil {
			return err
		}
		s.wdl = d
	}
	if err := s.c.Send(frame); err != nil {
		return err
	}
	s.bytesSent.Add(uint64(len(frame)))
	return nil
}

// writeFrame takes the write lock and writes one writer-goroutine frame.
// A failed write fails the session; the error is returned.
func (s *Session) writeFrame(frame []byte) error {
	if !s.lockWrite() {
		return s.closeErr()
	}
	err := s.writeLocked(frame, 0)
	s.unlockWrite()
	if err != nil {
		s.fail(err)
	}
	return err
}

// writeLoop is the session's writer goroutine. It sends the hellos first
// (NewSession took the write lock for them), then runs a strict priority
// scheduler, taking the write lock for each frame: pending protocol
// frames (pongs, window grants, resets, pings) first, and only with none
// pending one credit-gated data chunk. Small frames written by their
// senders compete for the lock between any two of these frames, so a
// cancel waits behind at most one chunk write.
func (s *Session) writeLoop(hellos []*[]byte) {
	defer s.loops.Done()
	var err error
	for _, bp := range hellos {
		if err == nil {
			err = s.writeLocked(*bp, 0)
		}
		wire.PutBuf(bp)
	}
	s.unlockWrite()
	if err != nil {
		s.fail(err)
		return
	}
	f := s.flow
	for {
		if err := f.writeControl(s); err != nil {
			return
		}
		wrote, err := f.writeData(s)
		if err != nil {
			return
		}
		if wrote {
			continue
		}
		// Nothing to write: block until there is work.
		select {
		case <-f.kick:
		case <-f.sched.Kick():
		case <-s.done:
			return
		}
	}
}

// readLoop demultiplexes inbound frames to their streams by envelope id.
// A frame for an unknown id either opens a server-side stream (Accept
// installed) or is a late response to an abandoned exchange, dropped.
func (s *Session) readLoop(preread []byte) {
	defer s.loops.Done()
	var scratch []byte
	frame := preread
	for {
		if frame == nil {
			var err error
			frame, err = s.c.Recv(scratch)
			if err != nil {
				s.fail(err)
				return
			}
			scratch = frame
		}
		s.bytesRecv.Add(uint64(len(frame)))
		if f := s.flow; f.ka != nil {
			// Any inbound frame proves the peer alive.
			f.ka.Touch(time.Now())
		}
		if wire.IsMux(frame) {
			id, payload, err := wire.SplitMux(frame)
			if err != nil {
				s.fail(fmt.Errorf("transport: bad mux frame on session: %w", err))
				return
			}
			if id == 0 {
				// Reserved session-control stream: the peer's hellos.
				s.onStream0(payload)
			} else {
				s.dispatch(id, payload)
			}
			frame = nil
			continue
		}
		if s.readFlowFrame(frame) {
			frame = nil
			continue
		}
		// A bare frame on a multiplexed connection means the peer lost
		// track of the protocol; nothing on this link can be trusted.
		s.fail(fmt.Errorf("transport: unexpected frame on session (op %v)", wire.PeekOp(frame)))
		return
	}
}

// readFlowFrame handles one naked flow frame, reporting whether the frame
// was one.
func (s *Session) readFlowFrame(frame []byte) bool {
	f := s.flow
	switch wire.PeekOp(frame) {
	case wire.OpData:
		id, flags, chunk, err := wire.SplitData(frame)
		if err != nil {
			return false
		}
		s.onData(id, flags, chunk)
	case wire.OpWindowUpdate:
		id, inc, err := wire.SplitWindowUpdate(frame)
		if err != nil {
			return false
		}
		f.mGrantsRecv.Inc()
		if id == 0 {
			f.sched.GrantSession(int64(inc))
		} else {
			f.sched.Grant(id, int64(inc))
		}
	case wire.OpFlowPing:
		token, _, err := wire.SplitFlowPing(frame)
		if err != nil {
			return false
		}
		f.queuePong(token)
		s.notifyKeepalive()
	case wire.OpFlowPong:
		// Touch already recorded the liveness; just count it.
		f.mPongs.Inc()
		s.notifyKeepalive()
	default:
		return false
	}
	return true
}

// dispatch routes one inbound payload to its stream, creating the stream
// (and handing it to an accept handler) when the peer opened it. The
// payload is delivered under s.mu, the lock Close takes to forget the
// stream, so once Close has returned no frame can land in the inbox —
// Release relies on that to recycle every delivered buffer.
func (s *Session) dispatch(id uint64, payload []byte) {
	bp := wire.GetBuf()
	*bp = append((*bp)[:0], payload...)
	s.mu.Lock()
	st, known := s.streams[id]
	fresh := false
	if !known && s.accept != nil && !s.closed {
		st = s.newStreamLocked(id)
		fresh = true
	}
	delivered := false
	if st != nil {
		select {
		case st.in <- inMsg{bp: bp}:
			delivered = true
		default:
			// Inbox overflow: treat like a lossy link rather than letting
			// one stream wedge the whole session's reader.
		}
	}
	s.mu.Unlock()
	if !delivered {
		wire.PutBuf(bp)
	}
	if fresh {
		s.serve(st)
	}
}

// serve runs the accept handler for a fresh inbound stream on a parked
// handler goroutine, starting a new one only when none is parked. Called
// only from the read loop.
func (s *Session) serve(st *Stream) {
	select {
	case s.handoff <- st:
		return
	default:
	}
	s.handlers.Add(1)
	go s.handle(st)
}

// handle is one handler goroutine: it serves st, then parks for the next
// stream, keeping its grown stack for it. It exits when the session is
// torn down, or after a stream when maxIdleHandlers are already parked.
func (s *Session) handle(st *Stream) {
	defer s.handlers.Done()
	for {
		s.accept(st)
		if s.idle.Add(1) > maxIdleHandlers {
			s.idle.Add(-1)
			return
		}
		select {
		case st = <-s.handoff:
			s.idle.Add(-1)
		case <-s.done:
			s.idle.Add(-1)
			return
		}
	}
}

// Stream is one logical exchange on a session. It implements Conn: Send
// wraps the payload in the stream's mux envelope and writes it (or, when
// large, hands it to the session writer in chunks); Recv awaits the next inbound frame routed to
// this id. Per the Conn contract a stream is used by one exchange at a
// time, with Close safe concurrently (a cancellation watcher closes the
// stream to abandon the exchange without touching the shared link). The
// goroutine that owns the exchange ends it with Release.
type Stream struct {
	s    *Session
	id   uint64
	in   chan inMsg
	done chan struct{}
	once sync.Once

	// deadline is the exchange deadline in Unix nanoseconds (0 = none).
	// It bounds the local waits — write lock, frame write and response
	// arrival — the way a connection deadline bounds socket I/O.
	deadline atomic.Int64

	// last is the pooled buffer returned by the previous Recv, recycled
	// on the next one (the Conn contract makes a Recv result valid only
	// until the next Recv) or by Release. Touched only by the owner.
	last *[]byte

	// asm accumulates an in-progress chunked message; the session's read
	// loop builds it and Release recycles a leftover one, both under amu.
	// ledger is the receive side of this stream's flow-control window;
	// the read loop charges it as chunks arrive and Recv as messages are
	// consumed.
	amu    sync.Mutex
	asm    *[]byte
	ledger *flow.RecvLedger
}

// inMsg is one delivered inbound message. charged is the byte count the
// stream's flow-control ledger holds frozen until the consumer takes the
// message (zero for unchunked frames, which are never charged).
type inMsg struct {
	bp      *[]byte
	charged int
}

// ID returns the stream's envelope id.
func (st *Stream) ID() uint64 { return st.id }

// Session returns the session carrying this stream.
func (st *Stream) Session() *Session { return st.s }

func (st *Stream) isClosed() bool {
	select {
	case <-st.done:
		return true
	default:
		return false
	}
}

// timer materializes the stream deadline, returning a nil channel when no
// deadline is set and ErrTimeout when it already passed.
func (st *Stream) timer() (*time.Timer, <-chan time.Time, error) {
	d := st.deadline.Load()
	if d == 0 {
		return nil, nil, nil
	}
	wait := time.Until(time.Unix(0, d))
	if wait <= 0 {
		return nil, nil, ErrTimeout
	}
	t := time.NewTimer(wait)
	return t, t.C, nil
}

// Send wraps payload in the stream's mux envelope and returns once the
// frame has actually been written to the connection (or the write
// failed). Returning only after the physical write matters for graceful
// drain: the runtime decrements its in-flight accounting when a
// dispatch's response Send returns, and shutdown hard-closes connections
// once that count reaches zero — an enqueue-and-return Send would let a
// response die unsent in a queue.
//
// A small frame is written by the calling goroutine under the session
// write lock. A large one is chunked through the writer's credit
// scheduler once the peer's hello has told us its windows. The stream
// deadline bounds every wait, including the write itself on connections
// with a write deadline.
func (st *Stream) Send(payload []byte) error {
	if st.isClosed() {
		return ErrClosed
	}
	s := st.s
	if len(payload) > s.flow.chunkThreshold() {
		// Large payload: stream it as bounded, credit-gated chunks
		// instead of one lock-monopolizing frame.
		return st.sendChunked(payload)
	}
	bp := wire.GetBuf()
	*bp = append(wire.AppendMuxHeader((*bp)[:0], st.id), payload...)
	if err := st.lockWrite(); err != nil {
		wire.PutBuf(bp)
		return err
	}
	err := s.writeLocked(*bp, st.deadline.Load())
	s.unlockWrite()
	wire.PutBuf(bp)
	if err != nil && !errors.Is(err, errUnsent) {
		// Part of the frame may be on the wire: the byte stream is no
		// longer trustworthy for anyone.
		s.fail(err)
	}
	return err
}

// lockWrite takes the session write lock for this stream's write, giving
// up when the stream deadline passes or the stream or session closes.
// The deadline timer is armed only when the lock is contended.
func (st *Stream) lockWrite() error {
	s := st.s
	select {
	case s.wlock <- struct{}{}:
		return nil
	default:
	}
	t, tc, err := st.timer()
	if err != nil {
		return err
	}
	if t != nil {
		defer t.Stop()
	}
	select {
	case s.wlock <- struct{}{}:
		return nil
	case <-st.done:
		return ErrClosed
	case <-s.done:
		return s.closeErr()
	case <-tc:
		return ErrTimeout
	}
}

// Recv returns the next inbound frame routed to this stream. The scratch
// argument is ignored; the session's demux already copied the payload
// into a pooled buffer, which Recv recycles on the following call (or
// Release does).
func (st *Stream) Recv(scratch []byte) ([]byte, error) {
	if st.last != nil {
		wire.PutBuf(st.last)
		st.last = nil
	}
	// Deliver a frame that arrived before teardown even if the stream or
	// session has since closed, matching the drain behaviour of real
	// connections.
	select {
	case m := <-st.in:
		return st.take(m), nil
	default:
	}
	if st.isClosed() {
		return nil, ErrClosed
	}
	t, tc, err := st.timer()
	if err != nil {
		return nil, err
	}
	if t != nil {
		defer t.Stop()
	}
	select {
	case m := <-st.in:
		return st.take(m), nil
	case <-st.done:
		return nil, ErrClosed
	case <-st.s.done:
		return nil, st.s.closeErr()
	case <-tc:
		return nil, ErrTimeout
	}
}

// take consumes one delivered message, granting back the flow-control
// credit its bytes held frozen while it sat in the inbox.
func (st *Stream) take(m inMsg) []byte {
	st.last = m.bp
	if m.charged > 0 {
		if g := st.ledger.Delivered(m.charged); g > 0 {
			st.s.flow.queueGrant(st.id, g)
		}
	}
	return *m.bp
}

// SetDeadline bounds subsequent Send and Recv waits; the zero time
// removes the bound. The deadline is local to this stream — it never
// touches the shared connection.
func (st *Stream) SetDeadline(t time.Time) error {
	if t.IsZero() {
		st.deadline.Store(0)
	} else {
		st.deadline.Store(t.UnixNano())
	}
	return nil
}

// Close abandons the exchange: the id is forgotten (late responses to it
// are dropped by the demux) and blocked Send/Recv calls fail. The shared
// connection and every other stream are untouched. Safe to call multiple
// times and concurrently with Send/Recv; it recycles nothing, so the
// owner may still be decoding the last frame Recv returned.
func (st *Stream) Close() error {
	st.once.Do(func() {
		close(st.done)
		st.s.removeStream(st.id)
		// Withdraw any queued chunked sends; a partially-sent message
		// poisons the peer's assembly, so a reset follows it.
		if f := st.s.flow; f.sched.CloseStream(st.id, ErrClosed) {
			f.queueReset(st.id)
		}
	})
	return nil
}

// Release ends the owner's use of the stream: it closes the stream and
// returns its receive buffers to the pool — the frame the last Recv
// returned, frames delivered but never received, and a partial chunk
// assembly. Only the goroutine that owns the exchange may call it, after
// its last Send and Recv; the last Recv result is invalid afterwards.
func (st *Stream) Release() {
	_ = st.Close()
	if st.last != nil {
		wire.PutBuf(st.last)
		st.last = nil
	}
	// The read loop touches asm only under amu and drops chunks for a
	// closed stream, so after this block it delivers nothing more.
	st.amu.Lock()
	if st.asm != nil {
		wire.PutBuf(st.asm)
		st.asm = nil
	}
	st.amu.Unlock()
	for {
		select {
		case m := <-st.in:
			wire.PutBuf(m.bp)
		default:
			return
		}
	}
}

// RemoteLabel describes the peer and the stream for logs.
func (st *Stream) RemoteLabel() string {
	return fmt.Sprintf("%s#%d", st.s.c.RemoteLabel(), st.id)
}

// Healthy reports whether the exchange can still complete: the stream is
// open and its session alive.
func (st *Stream) Healthy() bool { return !st.isClosed() && st.s.Healthy() }
