package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"sync"
	"time"

	"netobjects"
)

const (
	// refObjects is the size of A's export table and G's import table.
	refObjects = 1 << 16
	// refCallers is how many closed-loop callers drive the workload.
	// Caller c passes only the objects whose number is c modulo
	// refCallers, into a window of B's of its own, so no surrogate is in
	// two concurrent Takes: one caller's eviction cannot release what
	// the other's Take is about to return.
	refCallers = 2
	// holdWindow is how many surrogates B keeps, over all callers' windows,
	// before releasing a window's oldest.
	holdWindow = 64
	// repassShare is the share of ops that re-pass a reference B still
	// holds (an import-table hit with no dirty call).
	repassShare = 0.25
	// recentPerCaller is how many of its own latest passes a caller
	// re-passes from, far inside its window at B.
	recentPerCaller = 8
	// refPayload is the application data one transfer carries: the
	// reference's identity (owner id and index), passed and returned.
	refPayload = 2 * 16
)

// refObj is one of A's exported objects.
type refObj struct{ id int }

// Ping lets the object be called; the workload never calls it.
func (o *refObj) Ping() error { return nil }

// holder is B's exported service: it keeps a sliding window of the
// surrogates passed to it for each caller and releases the oldest.
type holder struct {
	tr      *spanTracer
	mu      sync.Mutex
	windows [refCallers][]*netobjects.Ref
}

// Take keeps r in caller's window, evicting the oldest surrogate beyond
// the window, and returns r, so the reply carries a reference the sender
// checks and acknowledges.
func (h *holder) Take(caller int64, r *netobjects.Ref) (*netobjects.Ref, error) {
	if h.tr != nil {
		defer h.tr.method(layerMethod, "Take", time.Now())
	}
	if caller < 0 || caller >= refCallers {
		return nil, fmt.Errorf("no caller %d", caller)
	}
	var evict *netobjects.Ref
	h.mu.Lock()
	w := h.windows[caller]
	held := false
	for i, x := range w {
		if x == r {
			// Already held: refresh its place in the window.
			copy(w[i:], w[i+1:])
			w[len(w)-1] = r
			held = true
			break
		}
	}
	if !held {
		w = append(w, r)
		if len(w) > holdWindow/refCallers {
			evict = w[0]
			w = append(w[:0], w[1:]...)
		}
	}
	h.windows[caller] = w
	h.mu.Unlock()
	if evict != nil {
		evict.Release()
	}
	return r, nil
}

// Size reports how many surrogates the holder keeps.
func (h *holder) Size() (int64, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := 0
	for _, w := range h.windows {
		n += len(w)
	}
	return int64(n), nil
}

// releaseAll drops every window.
func (h *holder) releaseAll() {
	h.mu.Lock()
	ws := h.windows
	h.windows = [refCallers][]*netobjects.Ref{}
	h.mu.Unlock()
	for _, w := range ws {
		for _, r := range w {
			r.Release()
		}
	}
}

// refsEnv is three TCP spaces: owner A exports refObjects objects,
// generator G holds a surrogate for each, and holder B receives them.
type refsEnv struct {
	a, b, g *netobjects.Space
	hold    *holder
	href    *netobjects.Ref   // G's surrogate for B's holder
	refs    []*netobjects.Ref // G's surrogates, by object
	index   []uint64          // A's export index of each object
	// Pre-workload table sizes, restored after the final release.
	aExports, bImports, gImports int
	recent                       [][]int // per caller, its latest passes
}

func setupRefs(seed uint64, tr *spanTracer) (env, error) {
	e := &refsEnv{hold: &holder{tr: tr}, recent: make([][]int, refCallers)}
	mk := func(name string) (*netobjects.Space, error) {
		return netobjects.New(netobjects.Options{Name: name, Tracer: tr.forSpace(name)})
	}
	var err error
	if e.a, err = mk("A"); err != nil {
		return nil, err
	}
	if e.b, err = mk("B"); err != nil {
		e.a.Abort()
		return nil, err
	}
	if e.g, err = mk("G"); err != nil {
		e.a.Abort()
		e.b.Abort()
		return nil, err
	}
	fail := func(err error) (env, error) {
		e.close()
		return nil, err
	}
	hw, err := exportWire(e.b, e.hold)
	if err != nil {
		return fail(err)
	}
	if e.href, err = e.g.Import(hw); err != nil {
		return fail(err)
	}
	// B imports one object of A's outside the working set, which dials
	// and warms the B-to-A session the dirty calls use.
	ww, err := exportWire(e.a, &refObj{id: -1})
	if err != nil {
		return fail(err)
	}
	if _, err := e.b.Import(ww); err != nil {
		return fail(err)
	}
	if _, err := e.href.CallCtx(context.Background(), "Size"); err != nil {
		return fail(err)
	}
	e.aExports, e.bImports, e.gImports = e.a.Exports().Len(), e.b.Imports().Len(), e.g.Imports().Len()

	wires := make([]netobjects.WireRep, refObjects)
	e.index = make([]uint64, refObjects)
	for i := range wires {
		if wires[i], err = exportWire(e.a, &refObj{id: i}); err != nil {
			return fail(err)
		}
		e.index[i] = wires[i].Index
	}
	// G imports the working set from two goroutines, one dirty call per
	// object.
	e.refs = make([]*netobjects.Ref, refObjects)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for c := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c; i < refObjects; i += 2 {
				if e.refs[i], errs[c] = e.g.Import(wires[i]); errs[c] != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fail(fmt.Errorf("importing the working set: %w", err))
		}
	}
	return e, nil
}

// exportWire exports obj from sp and returns its wire representation.
func exportWire(sp *netobjects.Space, obj any) (netobjects.WireRep, error) {
	r, err := sp.Export(obj)
	if err != nil {
		return netobjects.WireRep{}, err
	}
	return r.WireRep()
}

// op passes one of G's surrogates to B: a fresh seeded pick from the
// caller's share of the objects, or with probability repassShare one of
// the caller's own latest passes, which B still holds.
func (e *refsEnv) op(caller int, rng *rand.Rand) (int, error) {
	recent := e.recent[caller]
	var i int
	if len(recent) > 0 && rng.Float64() < repassShare {
		i = recent[rng.IntN(len(recent))]
	} else {
		i = caller + refCallers*rng.IntN(refObjects/refCallers)
	}
	outs, err := e.href.CallCtx(context.Background(), "Take", int64(caller), e.refs[i])
	if err != nil {
		return 0, err
	}
	if len(outs) != 1 || outs[0] != any(e.refs[i]) {
		return 0, fmt.Errorf("Take(object %d) returned %v, want %v", i, outs, e.refs[i])
	}
	if len(recent) == recentPerCaller {
		recent = append(recent[:0], recent[1:]...)
	}
	e.recent[caller] = append(recent, i)
	return refPayload, nil
}

func (e *refsEnv) spaces() []*netobjects.Space    { return []*netobjects.Space{e.a, e.b, e.g} }
func (e *refsEnv) coordinator() *netobjects.Space { return e.g }
func (e *refsEnv) owner() *netobjects.Space       { return e.a }

// finish checks the collector after the window: once B releases its
// window, no dirty set at A lists B; once G releases everything, A's
// export table and B's and G's import tables are back to their
// pre-workload sizes. The second wait is dgc.reclaim_s.
func (e *refsEnv) finish(m metricSet) error {
	e.hold.releaseAll()
	bID := e.b.ID()
	if err := waitFor(10*time.Second, func() bool {
		for _, ix := range e.index {
			if e.a.Exports().HoldsDirty(ix, bID) {
				return false
			}
		}
		return true
	}); err != nil {
		return fmt.Errorf("A's dirty sets still list B after B released its window: %w", err)
	}
	t0 := time.Now()
	for _, r := range e.refs {
		r.Release()
	}
	if err := waitFor(60*time.Second, func() bool { return e.a.Exports().Len() == e.aExports }); err != nil {
		return fmt.Errorf("A's export table holds %d entries after G released everything, want %d: %w",
			e.a.Exports().Len(), e.aExports, err)
	}
	m["dgc.reclaim_s"] = time.Since(t0).Seconds()
	if err := waitFor(10*time.Second, func() bool {
		return e.b.Imports().Len() == e.bImports && e.g.Imports().Len() == e.gImports
	}); err != nil {
		return fmt.Errorf("import tables leak: B holds %d (want %d), G holds %d (want %d): %w",
			e.b.Imports().Len(), e.bImports, e.g.Imports().Len(), e.gImports, err)
	}
	return nil
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(limit time.Duration, cond func() bool) error {
	deadline := time.Now().Add(limit)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("not reached within %v", limit)
		}
		time.Sleep(2 * time.Millisecond)
	}
	return nil
}

// close tears the spaces down without parting clean calls: all three go
// at once, so there is no one left to tell.
func (e *refsEnv) close() {
	for _, sp := range []*netobjects.Space{e.g, e.b, e.a} {
		if sp != nil {
			sp.Abort()
		}
	}
}
