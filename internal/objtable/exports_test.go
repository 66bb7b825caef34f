package objtable

import (
	"errors"
	"sync"
	"testing"

	"netobjects/internal/wire"
)

type thing struct{ n int }

func TestExportIdempotent(t *testing.T) {
	e := NewExports()
	obj := &thing{n: 1}
	ix1, err := e.Export(obj, []uint64{7})
	if err != nil {
		t.Fatal(err)
	}
	ix2, err := e.Export(obj, []uint64{7})
	if err != nil {
		t.Fatal(err)
	}
	if ix1 != ix2 {
		t.Fatalf("same object exported at %d and %d", ix1, ix2)
	}
	if ix1 < wire.FirstUserIndex {
		t.Fatalf("user export landed on reserved index %d", ix1)
	}
	other, _ := e.Export(&thing{n: 2}, []uint64{7})
	if other == ix1 {
		t.Fatal("distinct objects share an index")
	}
}

func TestExportRejectsValues(t *testing.T) {
	e := NewExports()
	if _, err := e.Export(thing{n: 1}, nil); !errors.Is(err, ErrNotExportable) {
		t.Fatalf("struct value: got %v", err)
	}
	if _, err := e.Export(nil, nil); !errors.Is(err, ErrNotExportable) {
		t.Fatalf("nil: got %v", err)
	}
	if _, err := e.Export(42, nil); !errors.Is(err, ErrNotExportable) {
		t.Fatalf("int: got %v", err)
	}
}

func TestExportAtWellKnown(t *testing.T) {
	e := NewExports()
	agent := &thing{}
	if err := e.ExportAt(agent, wire.AgentIndex, []uint64{1}); err != nil {
		t.Fatal(err)
	}
	if err := e.ExportAt(&thing{}, wire.AgentIndex, []uint64{1}); !errors.Is(err, ErrIndexInUse) {
		t.Fatalf("got %v", err)
	}
	ent, ok := e.Lookup(wire.AgentIndex)
	if !ok || !ent.Pinned {
		t.Fatal("agent entry missing or not pinned")
	}
	// Pinned entries survive dirty/clean cycles.
	if err := e.Dirty(wire.AgentIndex, 9, 1, nil); err != nil {
		t.Fatal(err)
	}
	e.Clean(wire.AgentIndex, 9, 2, false)
	if _, ok := e.Lookup(wire.AgentIndex); !ok {
		t.Fatal("pinned entry was withdrawn")
	}
}

func TestDirtyCleanLifecycle(t *testing.T) {
	e := NewExports()
	var withdrawn []uint64
	e.OnWithdraw = func(ix uint64, _ any) { withdrawn = append(withdrawn, ix) }
	ix, err := e.Export(&thing{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	const client = wire.SpaceID(77)
	if err := e.Dirty(ix, client, 1, []string{"inmem:c"}); err != nil {
		t.Fatal(err)
	}
	if !e.HoldsDirty(ix, client) {
		t.Fatal("client not in dirty set after dirty call")
	}
	e.Clean(ix, client, 2, false)
	if e.HoldsDirty(ix, client) {
		t.Fatal("client still in dirty set after clean")
	}
	if _, ok := e.Lookup(ix); ok {
		t.Fatal("entry not withdrawn after last clean")
	}
	if len(withdrawn) != 1 || withdrawn[0] != ix {
		t.Fatalf("OnWithdraw: %v", withdrawn)
	}
}

func TestSequenceNumberOrdering(t *testing.T) {
	e := NewExports()
	ix, _ := e.Export(&thing{}, nil)
	const client = wire.SpaceID(5)

	// Clean seq 2 processed before dirty seq 1 (out-of-order channels):
	// the late dirty must be ignored — this is the race the sequence
	// numbers exist to prevent.
	if err := e.Dirty(ix, client, 3, nil); err != nil {
		t.Fatal(err)
	}
	e.Clean(ix, client, 4, false)
	entGone := !e.HoldsDirty(ix, client)
	if !entGone {
		t.Fatal("clean ignored")
	}
	// Late dirty with stale seq: no effect even though entry (if any)
	// exists. The object may already be withdrawn, which reports
	// ErrNoSuchObject — also a correct, safe outcome.
	err := e.Dirty(ix, client, 3, nil)
	if err == nil && e.HoldsDirty(ix, client) {
		t.Fatal("stale dirty resurrected the client")
	}
}

func TestStaleCleanIgnored(t *testing.T) {
	e := NewExports()
	ix, _ := e.Export(&thing{}, nil)
	const client = wire.SpaceID(5)
	if err := e.Dirty(ix, client, 5, nil); err != nil {
		t.Fatal(err)
	}
	e.Clean(ix, client, 4, false) // stale: must not remove
	if !e.HoldsDirty(ix, client) {
		t.Fatal("stale clean removed a live dirty entry")
	}
}

func TestStrongCleanTombstone(t *testing.T) {
	e := NewExports()
	ix, _ := e.Export(&thing{}, nil)
	e.Pin(ix) // keep the object alive through the scenario
	const client = wire.SpaceID(8)

	// The client's dirty call failed with unknown outcome; it issues a
	// strong clean with a later seq. The clean arrives first.
	e.Clean(ix, client, 2, true)
	// The lost dirty call now limps in with the earlier seq: it must be
	// ignored thanks to the tombstone.
	if err := e.Dirty(ix, client, 1, nil); err != nil {
		t.Fatal(err)
	}
	if e.HoldsDirty(ix, client) {
		t.Fatal("cancelled dirty call took effect after strong clean")
	}
}

func TestStaleStrongCleanIgnored(t *testing.T) {
	// A strong clean overtaken by a newer dirty (a fresh registration
	// after the failed one it was cancelling) must be ignored: the
	// sequence rule applies to strong cleans too.
	e := NewExports()
	ix, _ := e.Export(&thing{}, nil)
	const client = wire.SpaceID(4)
	// seq 1: dirty lost in the network; seq 2: strong clean queued;
	// seq 3: fresh registration arrives first.
	if err := e.Dirty(ix, client, 3, nil); err != nil {
		t.Fatal(err)
	}
	e.Clean(ix, client, 2, true) // the delayed strong clean limps in
	if !e.HoldsDirty(ix, client) {
		t.Fatal("stale strong clean cleared a newer registration")
	}
	if _, ok := e.Lookup(ix); !ok {
		t.Fatal("object withdrawn by stale strong clean")
	}
}

func TestPinPreventsWithdraw(t *testing.T) {
	e := NewExports()
	ix, _ := e.Export(&thing{}, nil)
	const client = wire.SpaceID(3)
	if err := e.Pin(ix); err != nil {
		t.Fatal(err)
	}
	if err := e.Dirty(ix, client, 1, nil); err != nil {
		t.Fatal(err)
	}
	e.Clean(ix, client, 2, false)
	if _, ok := e.Lookup(ix); !ok {
		t.Fatal("pinned (in transit) entry was withdrawn on empty dirty set")
	}
	e.Unpin(ix)
	if _, ok := e.Lookup(ix); ok {
		t.Fatal("entry survived unpin with empty dirty set")
	}
}

func TestDropClient(t *testing.T) {
	e := NewExports()
	ix1, _ := e.Export(&thing{n: 1}, nil)
	ix2, _ := e.Export(&thing{n: 2}, nil)
	const dead = wire.SpaceID(1)
	const alive = wire.SpaceID(2)
	e.Dirty(ix1, dead, 1, nil)
	e.Dirty(ix2, dead, 1, nil)
	e.Dirty(ix2, alive, 1, nil)
	withdrawn := e.DropClient(dead)
	if len(withdrawn) != 1 || withdrawn[0] != ix1 {
		t.Fatalf("withdrawn %v, want [%d]", withdrawn, ix1)
	}
	if !e.HoldsDirty(ix2, alive) {
		t.Fatal("unrelated client lost its dirty entry")
	}
}

func TestClientsSnapshot(t *testing.T) {
	e := NewExports()
	ix, _ := e.Export(&thing{}, nil)
	e.Dirty(ix, 10, 1, []string{"inmem:a"})
	e.Dirty(ix, 20, 1, []string{"inmem:b"})
	e.Clean(ix, 20, 2, false)
	cs := e.Clients()
	if len(cs) != 1 {
		t.Fatalf("clients: %v", cs)
	}
	if eps := cs[10]; len(eps) != 1 || eps[0] != "inmem:a" {
		t.Fatalf("endpoints: %v", eps)
	}
}

func TestDirtyUnknownIndex(t *testing.T) {
	e := NewExports()
	if err := e.Dirty(99, 1, 1, nil); !errors.Is(err, ErrNoSuchObject) {
		t.Fatalf("got %v", err)
	}
	// Cleans for unknown objects are silent no-ops.
	e.Clean(99, 1, 1, false)
}

func TestConcurrentExportAndDirty(t *testing.T) {
	e := NewExports()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				ix, err := e.Export(&thing{n: g*1000 + i}, nil)
				if err != nil {
					t.Error(err)
					return
				}
				client := wire.SpaceID(g + 1)
				if err := e.Dirty(ix, client, 1, nil); err != nil {
					t.Error(err)
					return
				}
				e.Clean(ix, client, 2, false)
			}
		}(g)
	}
	wg.Wait()
	if e.Len() != 0 {
		t.Fatalf("leaked %d entries", e.Len())
	}
}

// TestHandOutSurvivesInFlightClean pins the out-of-band hand-out rule:
// a clean that empties the dirty set of a handed-out entry reprieves it,
// so the receiver's dirty call queued behind that clean still finds the
// object; the dirty clears the mark, and later cleans withdraw normally.
// A reprieve nobody follows up is ended by EndHandOut.
func TestHandOutSurvivesInFlightClean(t *testing.T) {
	const c = wire.SpaceID(9)
	e := NewExports()
	obj := &thing{}
	ix, _ := e.Export(obj, nil)
	if err := e.Dirty(ix, c, 1, nil); err != nil {
		t.Fatal(err)
	}
	// The owner hands the wireRep out while c's clean (seq 2) is in
	// flight; c re-registers (seq 3) as soon as that clean is answered.
	if hix, err := e.HandOut(obj, nil); err != nil || hix != ix {
		t.Fatalf("HandOut = %d, %v; want %d", hix, err, ix)
	}
	if !e.Clean(ix, c, 2, false) {
		t.Fatal("clean emptying a handed-out entry did not reprieve it")
	}
	if err := e.Dirty(ix, c, 3, nil); err != nil {
		t.Fatalf("dirty behind the in-flight clean: %v", err)
	}
	e.EndHandOut(ix) // the grace expires after the dirty: no effect
	if !e.HoldsDirty(ix, c) {
		t.Fatal("EndHandOut dropped a registered client")
	}
	if e.Clean(ix, c, 4, false) {
		t.Fatal("the dirty call did not clear the hand-out mark")
	}
	if e.Len() != 0 {
		t.Fatal("entry not withdrawn by the final clean")
	}

	// A hand-out whose receiver never registers: the reprieve ends.
	ix, _ = e.Export(obj, nil)
	_ = e.Dirty(ix, c, 5, nil)
	_, _ = e.HandOut(obj, nil)
	if !e.Clean(ix, c, 6, false) {
		t.Fatal("no reprieve")
	}
	if e.Len() != 1 {
		t.Fatal("reprieved entry withdrawn")
	}
	e.EndHandOut(ix)
	if e.Len() != 0 {
		t.Fatal("EndHandOut left an unheld entry in the table")
	}
}
