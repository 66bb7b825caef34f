package core

import (
	"context"
	"testing"

	"netobjects/internal/wire"
)

type nullSvc struct{}

func (*nullSvc) Ping() {}

// TestNullCallLoopAllocFree pins the steady-state null call at zero
// allocations across the whole client→serve→reply loop. It composes the
// exact production functions the remote path runs — client argument
// marshal and frame encode, server frame decode, executeCall dispatch and
// result encode, client reply decode — synchronously, without the
// transport in between (goroutine wakeups and stream channels are the
// link's own cost, not the call path's). Every pooled resource is taken
// and returned the way the real call sites do it, so a regression in any
// pool (call frames, results, sessions, pickle scratch, wire buffers,
// dispatch argv) fails this pin.
func TestNullCallLoopAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; the pin runs in non-race builds")
	}
	tn := newTestNet(t)
	sp := tn.space("owner", nil)
	ref, err := sp.Export(&nullSvc{})
	if err != nil {
		t.Fatal(err)
	}
	w, err := ref.WireRep()
	if err != nil {
		t.Fatal(err)
	}
	idx := w.Index
	ctx := context.Background()

	loop := func() {
		// Client: marshal arguments and assemble the call frame, as
		// dynamicCall/InvokeTypedCtx + exchange do.
		csess := sp.getCallSession()
		abp := wire.GetBuf()
		argBytes, err := sp.pickler.MarshalSession((*abp)[:0], nil, csess)
		if err != nil {
			t.Fatal(err)
		}
		*abp = argBytes
		call := callPool.Get().(*wire.Call)
		call.Obj, call.Method, call.Typed, call.Args = idx, "Ping", true, argBytes
		fbp := wire.GetBuf()
		frame := wire.Marshal((*fbp)[:0], call)
		*fbp = frame
		putCall(call)
		wire.PutBuf(abp)

		// Server: decode the frame, dispatch, encode the reply, as
		// serveStream + handleCall + executeCall do.
		scall := callPool.Get().(*wire.Call)
		if err := wire.UnmarshalInto(frame, scall); err != nil {
			t.Fatal(err)
		}
		ssess := sp.getCallSession()
		res := resultPool.Get().(*wire.Result)
		rbp := wire.GetBuf()
		sp.executeCall(ctx, scall, ssess, res, (*rbp)[:0])
		if res.Status != wire.StatusOK {
			t.Fatalf("null call failed: %v %s", res.Status, res.Err)
		}
		res.NeedAck = ssess.pinned()
		ssess.unpinAll()
		ssess.recycle()
		putCall(scall)
		rfbp := wire.GetBuf()
		reply := wire.Marshal((*rfbp)[:0], res)
		*rfbp = reply
		if cap(res.Results) != 0 {
			*rbp = res.Results[:0]
		}
		wire.PutBuf(rbp)
		putResult(res)
		wire.PutBuf(fbp)

		// Client: decode the reply, as exchange + the result decoder do.
		cres := resultPool.Get().(*wire.Result)
		if err := wire.UnmarshalInto(reply, cres); err != nil {
			t.Fatal(err)
		}
		if _, err := sp.pickler.UnmarshalSession(cres.Results, nil, csess); err != nil {
			t.Fatal(err)
		}
		csess.unpinAll()
		csess.recycle()
		putResult(cres)
		wire.PutBuf(rfbp)
	}
	loop() // warm the pools, the dispatch cache and the intern table
	if n := testing.AllocsPerRun(200, loop); n != 0 {
		t.Fatalf("null call loop: %v allocations per run, want 0", n)
	}
}

// TestExportLookupAllocFree pins the sharded export-table lookup — the
// per-call table operation — at zero allocations.
func TestExportLookupAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; the pin runs in non-race builds")
	}
	tn := newTestNet(t)
	sp := tn.space("owner", nil)
	ref, err := sp.Export(&nullSvc{})
	if err != nil {
		t.Fatal(err)
	}
	w, err := ref.WireRep()
	if err != nil {
		t.Fatal(err)
	}
	idx := w.Index
	if n := testing.AllocsPerRun(200, func() {
		if _, ok := sp.exports.Lookup(idx); !ok {
			t.Fatal("export vanished")
		}
	}); n != 0 {
		t.Fatalf("export lookup: %v allocations per run, want 0", n)
	}
}

// callCtxAllocPin is the allocation count of one full remote null call
// (Ref.CallCtx over an in-memory session, both spaces in this process)
// at which TestCallCtxAllocPin holds the call path.
const callCtxAllocPin = 21

// TestCallCtxAllocPin pins the allocations of a complete remote null
// call — client marshal, stream open, session write and demux, the
// owner's parked dispatch handler, reply, decode and stream release —
// end to end through the real transport, not just the marshal and
// dispatch functions TestNullCallLoopAllocFree composes.
func TestCallCtxAllocPin(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; the pin runs in non-race builds")
	}
	tn := newTestNet(t)
	owner := tn.space("owner", nil)
	client := tn.space("client", nil)
	ref, err := owner.Export(&nullSvc{})
	if err != nil {
		t.Fatal(err)
	}
	cref := handoff(t, ref, client)
	ctx := context.Background()
	call := func() {
		if _, err := cref.CallCtx(ctx, "Ping"); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		call() // warm the pools, the session and the parked handler
	}
	n := testing.AllocsPerRun(500, call)
	t.Logf("full null call: %v allocations per call", n)
	if n > callCtxAllocPin {
		t.Fatalf("full null call: %v allocations per call, pin %d", n, callCtxAllocPin)
	}
}
