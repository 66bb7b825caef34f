package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"netobjects"
	"netobjects/internal/obs"
)

// Span layers. A span's layer names the boundary the benchmark observed:
// its own op and method bodies, the runtime's call, dispatch and
// collector events (from Options.Tracer), and the layer probes.
const (
	layerOp     = "bench.op"
	layerMethod = "app.method"
	layerCall   = "core.call"
	layerServe  = "core.serve"
	layerDirty  = "dgc.dirty"
	layerClean  = "dgc.clean"
	layerDial   = "transport.dial"
	layerSorter = "distarray.method"
	layerProbe  = "probe"
	layerEvent  = "event"
)

// span is one timed interval. Spans of one op share its Op id; the
// runtime's background work (keepalives, batched cleans) has Op 0.
type span struct {
	Op     uint64 `json:"op"`
	Layer  string `json:"layer"`
	Name   string `json:"name,omitempty"`
	Space  string `json:"space,omitempty"`
	Call   uint64 `json:"call,omitempty"`
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
	Parent int    `json:"parent"` // line of the parent span in the trace file, -1 at an op's root
}

// keptOps bounds how many ops keep their spans in memory for the trace
// file and the self-time table (probe batches are always kept);
// durations are aggregated for every op.
const keptOps = 4000

// spanTracer keeps the traced run's spans in memory. The runtime's
// events carry no op identity, so the tracer links them to ops by the
// goroutine that emitted them: a caller goroutine is bound to its op
// while the op runs, a serving goroutine from its dispatch event to its
// completion, and an event carrying a call id inherits the op of the
// call that sent it. With a single caller, every event belongs to the
// one op in flight.
type spanTracer struct {
	base    time.Time
	ops     atomic.Uint64
	single  bool
	current atomic.Uint64 // the op in flight when there is one caller

	mu      sync.Mutex
	byG     map[uint64]uint64 // goroutine -> op
	byCall  map[uint64]uint64 // call id -> op
	spans   []span
	unowned int
	// durs holds every span's duration (µs) by layer, sums the total
	// time by layer and name.
	durs   map[string][]float64
	sums   map[[2]string]time.Duration
	frozen bool // set after the window: later runtime events are dropped
}

func newSpanTracer(callers int) *spanTracer {
	return &spanTracer{
		base:   time.Now(),
		single: callers == 1,
		byG:    make(map[uint64]uint64),
		byCall: make(map[uint64]uint64),
		durs:   make(map[string][]float64),
		sums:   make(map[[2]string]time.Duration),
	}
}

// freeze stops recording the runtime's events: what follows the window
// is not part of it.
func (t *spanTracer) freeze() {
	t.mu.Lock()
	t.frozen = true
	t.mu.Unlock()
}

// reset drops everything recorded so far: the set-up's events belong to
// no op.
func (t *spanTracer) reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	clear(t.byG)
	clear(t.byCall)
	clear(t.durs)
	clear(t.sums)
	t.spans = t.spans[:0]
	t.unowned = 0
}

// beginOp allocates an op id and binds the caller goroutine to it.
func (t *spanTracer) beginOp(gid uint64) uint64 {
	id := t.ops.Add(1)
	t.mu.Lock()
	t.byG[gid] = id
	t.mu.Unlock()
	t.current.Store(id)
	return id
}

// endOp records the op span and unbinds the caller goroutine.
func (t *spanTracer) endOp(gid, op uint64, start, end time.Time) {
	t.mu.Lock()
	delete(t.byG, gid)
	t.mu.Unlock()
	t.current.Store(0)
	t.record(span{Op: op, Layer: layerOp}, start, end)
}

// record stores s over [start, end] and aggregates its duration.
func (t *spanTracer) record(s span, start, end time.Time) {
	s.Start = start.Sub(t.base).Nanoseconds()
	s.Dur = end.Sub(start).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	if s.Op == 0 {
		t.unowned++
	}
	if s.Layer != layerEvent {
		t.durs[s.Layer] = append(t.durs[s.Layer], float64(s.Dur)/1e3)
		t.sums[[2]string{s.Layer, s.Name}] += time.Duration(s.Dur)
	}
	if s.Op != 0 && (s.Op <= keptOps || s.Layer == layerProbe) {
		t.spans = append(t.spans, s)
	}
}

// opOf returns the op the calling goroutine is working for.
func (t *spanTracer) opOf(gid, call uint64) uint64 {
	t.mu.Lock()
	op, ok := t.byG[gid]
	if !ok && call != 0 {
		op = t.byCall[call]
	}
	t.mu.Unlock()
	if op == 0 && t.single {
		op = t.current.Load()
	}
	return op
}

// method records a method body of the benchmark's own objects that
// began at start.
func (t *spanTracer) method(layer, name string, start time.Time) {
	if t == nil {
		return
	}
	t.record(span{Op: t.opOf(goroutineKey(), 0), Layer: layer, Name: name}, start, time.Now())
}

// probe records one layer-probe batch as its own op.
func (t *spanTracer) probe(name string, start time.Time) {
	if t == nil {
		return
	}
	t.record(span{Op: t.ops.Add(1), Layer: layerProbe, Name: name}, start, time.Now())
}

// forSpace returns the runtime tracer to install on the space labelled
// name.
func (t *spanTracer) forSpace(name string) netobjects.Tracer {
	if t == nil {
		return nil
	}
	return spaceTracer{t: t, space: name}
}

type spaceTracer struct {
	t     *spanTracer
	space string
}

// Emit turns runtime events into spans: events carrying a duration
// become intervals ending at the event, the rest zero-length marks.
func (st spaceTracer) Emit(e netobjects.TraceEvent) {
	t := st.t
	t.mu.Lock()
	frozen := t.frozen
	t.mu.Unlock()
	if frozen {
		return
	}
	gid := goroutineKey()
	op := t.opOf(gid, e.CallID)
	layer := layerEvent
	switch e.Kind {
	case obs.EvCallSend:
		if op != 0 {
			t.mu.Lock()
			t.byCall[e.CallID] = op
			t.mu.Unlock()
		}
		return
	case obs.EvCallServe:
		// Bind the serving goroutine so the method body and any
		// collector calls it makes join the op.
		if op != 0 {
			t.mu.Lock()
			t.byG[gid] = op
			t.mu.Unlock()
		}
		return
	case obs.EvCallReply:
		layer = layerCall
		t.mu.Lock()
		delete(t.byCall, e.CallID)
		t.mu.Unlock()
	case obs.EvCallDone:
		layer = layerServe
		t.mu.Lock()
		if t.byG[gid] == op {
			delete(t.byG, gid)
		}
		t.mu.Unlock()
	case obs.EvDirtySend:
		layer = layerDirty
	case obs.EvCleanSend:
		layer = layerClean
	case obs.EvPoolMiss:
		layer = layerDial
	}
	name := e.Method
	if layer == layerEvent {
		name = e.Kind.String()
	}
	t.record(span{Op: op, Layer: layer, Name: name, Space: st.space, Call: e.CallID}, e.Time.Add(-e.Dur), e.Time)
}

// p50 returns the median duration (µs) of a layer's spans, 0 when none.
func (t *spanTracer) p50(layer string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return median(t.durs[layer])
}

// sum returns the total duration of the spans of layer named name.
func (t *spanTracer) sum(layer, name string) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.sums[[2]string{layer, name}]
}

// selfTimes links every kept op's spans into a tree — a span's parent is
// the smallest span of the same op enclosing it — and returns, per layer,
// the total time spans of that layer spent outside their children.
func (t *spanTracer) selfTimes() (self map[string]time.Duration, ops int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	byOp := make(map[uint64][]int)
	for i, s := range t.spans {
		byOp[s.Op] = append(byOp[s.Op], i)
	}
	self = make(map[string]time.Duration)
	for _, idx := range byOp {
		// Earlier, then longer spans first, so a parent precedes its
		// children.
		slices.SortStableFunc(idx, func(a, b int) int {
			sa, sb := t.spans[a], t.spans[b]
			if c := cmp.Compare(sa.Start, sb.Start); c != 0 {
				return c
			}
			return cmp.Compare(sb.Dur, sa.Dur)
		})
		children := make(map[int][]int)
		for k, i := range idx {
			s := &t.spans[i]
			s.Parent = -1
			best := -1
			for _, j := range idx[:k] {
				p := t.spans[j]
				if p.Start <= s.Start && p.Start+p.Dur >= s.Start+s.Dur && (best < 0 || p.Dur <= t.spans[best].Dur) {
					best = j
				}
			}
			if best >= 0 {
				s.Parent = best
				children[best] = append(children[best], i)
			}
		}
		if t.spans[idx[0]].Layer != layerOp {
			continue // a probe batch, not an op
		}
		for _, i := range idx {
			if s := t.spans[i]; s.Layer != layerEvent {
				self[s.Layer] += time.Duration(s.Dur - covered(t.spans, children[i]))
			}
		}
		ops++
	}
	return self, ops
}

// covered returns the length of the union of the given spans' intervals.
func covered(spans []span, idx []int) int64 {
	iv := make([][2]int64, 0, len(idx))
	for _, i := range idx {
		iv = append(iv, [2]int64{spans[i].Start, spans[i].Start + spans[i].Dur})
	}
	slices.SortFunc(iv, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
	var total, end int64
	end = -1 << 62
	for _, v := range iv {
		if v[0] > end {
			total += v[1] - v[0]
			end = v[1]
		} else if v[1] > end {
			total += v[1] - end
			end = v[1]
		}
	}
	return total
}

// printSelfTimes writes the per-layer self-time table.
func (t *spanTracer) printSelfTimes(w io.Writer) {
	self, ops := t.selfTimes()
	layers := make([]string, 0, len(self))
	for l := range self {
		layers = append(layers, l)
	}
	slices.Sort(layers)
	fmt.Fprintf(w, "self time per layer over %d traced ops (%d spans not linked to an op):\n", ops, t.unowned)
	for _, l := range layers {
		fmt.Fprintf(w, "  %-16s %12.2f us/op\n", l, float64(self[l].Nanoseconds())/1e3/float64(max(ops, 1)))
	}
}

// writeSpans writes the kept spans as JSON lines to path.
func (t *spanTracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
