package transport

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"netobjects/internal/flow"
	"netobjects/internal/obs"
	"netobjects/internal/wire"
)

// This file is the session half of the flow-control subsystem
// (internal/flow): chunked sends, credit accounting, the writer's
// priority lanes, and keepalives. Every session advertises its receive
// windows in a SessHello, its first frame, wrapped in the mux envelope on
// reserved stream id 0. A payload larger than the chunk size travels as
// credit-gated OpData chunks once the peer's hello has arrived; smaller
// payloads travel whole.
//
// The writer goroutine sends these frames in strict priority order:
// pending protocol frames (pongs, window grants, resets, pings) first,
// and only when none is pending one data chunk. It takes the session
// write lock for each frame, and small frames (calls, responses, cancels,
// collector RPCs) are written by their senders between any two of them,
// so a cancel waits at most one chunk write — the fairness that folding
// every exchange onto one connection would otherwise lose.

// flowState carries one session's flow-control machinery.
type flowState struct {
	params flow.Params     // local (receive-side) parameters, resolved
	sched  *flow.Scheduler // sender side: queued items, credit, round-robin
	ka     *flow.Keepalive // nil when keepalives are disabled

	helloCh   chan struct{} // closed when the peer's hello arrives
	helloOnce sync.Once
	peerOK    atomic.Bool  // the peer's hello has arrived
	sendChunk atomic.Int64 // chunk size for sends: min(local, peer), set on hello

	sessLedger *flow.RecvLedger // receive side of the session-level window

	// Pending protocol frames, materialized by the writer at send time so
	// the reader never blocks queueing them (a reader blocked on its own
	// writer is one half of a classic distributed deadlock).
	gmu    sync.Mutex
	grants map[uint64]int64 // stream id -> coalesced credit; id 0 = session
	pongs  []uint64
	pings  []uint64
	resets []uint64
	kick   chan struct{} // wakes the writer for control work

	seenStalls uint64 // scheduler stalls already mirrored to the metric (writer-only)

	mChunks     *obs.Counter
	mGrantsSent *obs.Counter
	mGrantsRecv *obs.Counter
	mStalls     *obs.Counter
	mPings      *obs.Counter
	mPongs      *obs.Counter
	mKaFail     *obs.Counter
}

func newFlowState(p flow.Params, m *obs.Metrics) *flowState {
	f := &flowState{
		params:     p,
		sched:      flow.NewScheduler(p.ChunkSize, p.StreamWindow, p.SessionWindow),
		helloCh:    make(chan struct{}),
		sessLedger: flow.NewRecvLedger(p.SessionWindow),
		grants:     make(map[uint64]int64),
		kick:       make(chan struct{}, 1),
	}
	if p.KeepaliveInterval > 0 {
		f.ka = flow.NewKeepalive(p.KeepaliveInterval, time.Now())
	}
	if m != nil {
		f.mChunks = m.FlowChunksSent
		f.mGrantsSent = m.FlowWindowUpdatesSent
		f.mGrantsRecv = m.FlowWindowUpdatesRecv
		f.mStalls = m.FlowWriterStalls
		f.mPings = m.KeepalivePingsSent
		f.mPongs = m.KeepalivePongsRecv
		f.mKaFail = m.KeepaliveFailures
	}
	return f
}

func (f *flowState) wake() {
	select {
	case f.kick <- struct{}{}:
	default:
	}
}

// onHello applies the peer's flow hello: sends are chunked and credited
// by the smaller of the two chunk sizes and the peer's receive windows.
func (f *flowState) onHello(h *wire.SessHello) {
	f.helloOnce.Do(func() {
		chunk := f.params.ChunkSize
		if h.ChunkSize > 0 && int(h.ChunkSize) < chunk {
			chunk = int(h.ChunkSize)
		}
		sw, xw := int64(h.StreamWindow), int64(h.SessionWindow)
		if sw <= 0 {
			sw = flow.DefaultStreamWindow
		}
		if xw <= 0 {
			xw = flow.DefaultSessionWindow
		}
		f.sched.Configure(chunk, sw, xw)
		f.sendChunk.Store(int64(chunk))
		f.peerOK.Store(true)
		close(f.helloCh)
	})
}

// chunkThreshold is the size above which a payload is chunked.
func (f *flowState) chunkThreshold() int {
	if c := f.sendChunk.Load(); c > 0 {
		return int(c)
	}
	return f.params.ChunkSize
}

// waitPeer blocks a large send until the peer's hello has told us its
// receive windows. Every peer sends its hello first, so only the stream
// deadline, the stream's close or the session's death end the wait early.
func (st *Stream) waitPeer() error {
	f := st.s.flow
	if f.peerOK.Load() {
		return nil
	}
	t, tc, err := st.timer()
	if err != nil {
		return err
	}
	if t != nil {
		defer t.Stop()
	}
	select {
	case <-f.helloCh:
		return nil
	case <-tc:
		return ErrTimeout
	case <-st.done:
		return ErrClosed
	case <-st.s.done:
		return st.s.closeErr()
	}
}

// queueGrant coalesces a window update for stream id (0 = session) to be
// sent by the writer's priority lane.
func (f *flowState) queueGrant(id uint64, n int64) {
	f.gmu.Lock()
	f.grants[id] += n
	f.gmu.Unlock()
	f.wake()
}

func (f *flowState) queuePong(token uint64) {
	f.gmu.Lock()
	f.pongs = append(f.pongs, token)
	f.gmu.Unlock()
	f.wake()
}

func (f *flowState) queuePing(token uint64) {
	f.gmu.Lock()
	f.pings = append(f.pings, token)
	f.gmu.Unlock()
	f.wake()
}

func (f *flowState) queueReset(id uint64) {
	f.gmu.Lock()
	f.resets = append(f.resets, id)
	f.gmu.Unlock()
	f.wake()
}

// popControl builds the next pending protocol frame into bp, highest
// priority first: pongs (the peer's detector is waiting), grants (the
// peer's writer may be stalled), resets, then our own pings.
func (f *flowState) popControl(bp *[]byte) bool {
	f.gmu.Lock()
	defer f.gmu.Unlock()
	buf := (*bp)[:0]
	switch {
	case len(f.pongs) > 0:
		buf = wire.AppendFlowPing(buf, f.pongs[0], true)
		f.pongs = f.pongs[1:]
	case len(f.grants) > 0:
		for id, n := range f.grants {
			buf = wire.AppendWindowUpdate(buf, id, uint64(n))
			delete(f.grants, id)
			break
		}
		f.mGrantsSent.Inc()
	case len(f.resets) > 0:
		buf = wire.AppendDataHeader(buf, f.resets[0], wire.DataFlagReset)
		f.resets = f.resets[1:]
	case len(f.pings) > 0:
		buf = wire.AppendFlowPing(buf, f.pings[0], false)
		f.pings = f.pings[1:]
		f.mPings.Inc()
	default:
		return false
	}
	*bp = buf
	return true
}

// writeControl drains every pending protocol frame onto the connection.
// A failed write has failed the session.
func (f *flowState) writeControl(s *Session) error {
	for {
		bp := wire.GetBuf()
		if !f.popControl(bp) {
			wire.PutBuf(bp)
			return nil
		}
		err := s.writeFrame(*bp)
		wire.PutBuf(bp)
		if err != nil {
			return err
		}
	}
}

// writeData sends at most one credit-gated data chunk, reporting whether
// it wrote anything. A failed write has failed the session.
func (f *flowState) writeData(s *Session) (bool, error) {
	it, chunk, last, ok := f.sched.Next()
	if !ok {
		// Mirror scheduler stalls (data queued, no credit) to the metric.
		if st := f.sched.Stalls(); st > f.seenStalls {
			f.mStalls.Add(st - f.seenStalls)
			f.seenStalls = st
		}
		return false, nil
	}
	var flags uint64
	if last {
		flags = wire.DataFlagLast
	}
	bp := wire.GetBuf()
	*bp = append(wire.AppendDataHeader((*bp)[:0], it.ID(), flags), chunk...)
	err := s.writeFrame(*bp)
	wire.PutBuf(bp)
	if err != nil {
		return false, err
	}
	f.mChunks.Inc()
	if last {
		f.sched.Finish(it, nil)
	}
	return true, nil
}

// onData handles one inbound data chunk: session- and stream-level credit
// accounting, assembly, and delivery of completed messages.
func (s *Session) onData(id, flags uint64, chunk []byte) {
	f := s.flow
	if g := f.sessLedger.Chunk(len(chunk)); g > 0 {
		f.queueGrant(0, g)
	}
	if id == 0 {
		return
	}
	s.mu.Lock()
	st, known := s.streams[id]
	fresh := false
	if !known && s.accept != nil && !s.closed && flags&wire.DataFlagReset == 0 {
		st = s.newStreamLocked(id)
		fresh = true
	}
	s.mu.Unlock()
	if st == nil {
		return // late chunks for an abandoned exchange: dropped
	}
	if fresh {
		defer s.serve(st)
	}
	st.amu.Lock()
	defer st.amu.Unlock()
	if flags&wire.DataFlagReset != 0 || st.isClosed() {
		// The sender abandoned the message mid-stream, or the receiver
		// abandoned the exchange: drop the partial assembly. A reset also
		// tears the stream down so a blocked handler unwedges.
		if st.asm != nil {
			wire.PutBuf(st.asm)
			st.asm = nil
		}
		_ = st.Close()
		return
	}
	if st.asm == nil {
		bp := wire.GetBuf()
		*bp = (*bp)[:0]
		st.asm = bp
	}
	*st.asm = append(*st.asm, chunk...)
	if g := st.ledger.Chunk(len(chunk)); g > 0 {
		f.queueGrant(id, g)
	}
	if flags&wire.DataFlagLast != 0 {
		bp := st.asm
		st.asm = nil
		n := len(*bp)
		st.ledger.Complete(n)
		select {
		case st.in <- inMsg{bp: bp, charged: n}:
		default:
			// Inbox overflow: drop like a lossy link, but count the bytes
			// consumed so the sender's window is not wedged forever.
			wire.PutBuf(bp)
			if g := st.ledger.Delivered(n); g > 0 {
				f.queueGrant(id, g)
			}
		}
	}
}

// sendChunked waits for the peer's hello, queues payload with the
// scheduler and waits for the final chunk's physical write, preserving
// Send's drain contract. The payload is not copied: it stays aliased
// until the item completes or is withdrawn, both of which happen-before
// return.
func (st *Stream) sendChunked(payload []byte) error {
	if err := st.waitPeer(); err != nil {
		return err
	}
	f := st.s.flow
	it := f.sched.Enqueue(st.id, payload)
	t, tc, derr := st.timer()
	if t != nil {
		defer t.Stop()
	}
	if derr != nil {
		st.abortChunked(it, derr)
		return derr
	}
	select {
	case err := <-it.Done():
		return err
	case <-st.done:
		st.abortChunked(it, ErrClosed)
		return ErrClosed
	case <-st.s.done:
		st.abortChunked(it, ErrClosed)
		return st.s.closeErr()
	case <-tc:
		st.abortChunked(it, ErrTimeout)
		return ErrTimeout
	}
}

// abortChunked withdraws a queued item; if chunks already reached the
// wire the receiver's assembly is poisoned, so a reset follows in the
// priority lane.
func (st *Stream) abortChunked(it *flow.Item, cause error) {
	f := st.s.flow
	if f.sched.Abort(it, cause) {
		f.queueReset(st.id)
	}
}

// keepaliveLoop probes the peer and fails the session when it goes
// silent. Probing starts once the peer's hello has arrived; until then
// liveness stays with the per-call connection probe.
func (s *Session) keepaliveLoop() {
	defer s.loops.Done()
	f := s.flow
	t := time.NewTicker(f.ka.Interval())
	defer t.Stop()
	for {
		select {
		case now := <-t.C:
			if !f.peerOK.Load() {
				continue
			}
			dead, ping, token := f.ka.Tick(now)
			if dead {
				f.mKaFail.Inc()
				s.fail(fmt.Errorf("transport: peer failed keepalive (quiet past %v)", flow.KeepaliveMisses*f.ka.Interval()))
				return
			}
			if ping {
				f.queuePing(token)
			}
		case <-s.done:
			return
		}
	}
}
