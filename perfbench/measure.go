package main

import (
	"math/rand/v2"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"syscall"
	"time"

	"netobjects"
)

// window is the outcome of one timed closed-loop run.
type window struct {
	lats      []uint32 // latency of each completed op, ns
	attempted uint64
	failed    uint64
	payload   uint64 // application bytes the completed ops moved
	elapsed   time.Duration
	cpu       time.Duration // process CPU time spent during the window
	firstErr  error
}

// env is one set-up instance of a workload: its spaces, connected and
// warm, ready to run ops.
type env interface {
	// op runs one operation for caller, drawing its inputs from rng. It
	// returns the application bytes the op moved, and an error when the
	// op failed or returned a wrong result.
	op(caller int, rng *rand.Rand) (payload int, err error)
	// spaces lists every space of the instance.
	spaces() []*netobjects.Space
	// coordinator is the space that drives the ops.
	coordinator() *netobjects.Space
	// owner is the space holding the workload's largest export table.
	owner() *netobjects.Space
	// finish runs the post-window correctness checks and records any
	// metrics they measure.
	finish(m metricSet) error
	// close tears the instance down.
	close()
}

// runWindow drives env from callers closed-loop goroutines for d. Each
// caller draws its inputs from its own stream of seed, so the same seed
// gives every caller the same op sequence. When tr is non-nil every op is
// recorded as a span.
func runWindow(e env, callers int, d time.Duration, seed uint64, tr *spanTracer) *window {
	type callerState struct {
		lats              []uint32
		attempted, failed uint64
		payload           uint64
		err               error
	}
	per := make([]callerState, callers)
	start := time.Now()
	deadline := start.Add(d)
	cpu0 := cpuTime()
	var wg sync.WaitGroup
	for c := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st := &per[c]
			rng := rand.New(rand.NewPCG(seed, uint64(c)+1))
			var gid uint64
			if tr != nil {
				gid = goroutineKey()
			}
			for {
				t0 := time.Now()
				if !t0.Before(deadline) {
					return
				}
				var opID uint64
				if tr != nil {
					opID = tr.beginOp(gid)
				}
				payload, err := e.op(c, rng)
				t1 := time.Now()
				if tr != nil {
					tr.endOp(gid, opID, t0, t1)
				}
				st.attempted++
				if err != nil {
					st.failed++
					if st.err == nil {
						st.err = err
					}
					continue
				}
				st.payload += uint64(payload)
				st.lats = append(st.lats, uint32(min(t1.Sub(t0), time.Duration(1<<32-1))))
			}
		}()
	}
	wg.Wait()
	w := &window{elapsed: time.Since(start), cpu: cpuTime() - cpu0}
	for _, st := range per {
		w.lats = append(w.lats, st.lats...)
		w.attempted += st.attempted
		w.failed += st.failed
		w.payload += st.payload
		if w.firstErr == nil {
			w.firstErr = st.err
		}
	}
	return w
}

// runOps makes n ops one after another, the callers taking turns, with
// inputs drawn from a stream of seed that no window caller uses.
func runOps(e env, callers, n int, seed uint64) *window {
	rng := rand.New(rand.NewPCG(seed, 0x4ea9))
	w := &window{}
	for i := range n {
		w.attempted++
		if _, err := e.op(i%callers, rng); err != nil {
			w.failed++
			if w.firstErr == nil {
				w.firstErr = err
			}
		}
	}
	return w
}

// quantile returns the q-quantile of sorted (nearest rank).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted)) + 0.5)
	return sorted[min(max(i, 1), len(sorted))-1]
}

// median returns the median of vs without reordering it.
func median(vs []float64) float64 {
	s := slices.Clone(vs)
	slices.Sort(s)
	return quantile(s, 0.5)
}

// tailPercentiles are the candidate tail percentiles, highest first. p99
// is printed but not a candidate: on a shared two-vCPU host it doubles
// while other tenants load the host, and its run-to-run spread exceeds
// the largest bound the benchmark may set.
var tailPercentiles = []float64{90, 80, 50}

// summary is a window's end-to-end figures, each over the whole window.
type summary struct {
	opsPerS, p50US, tailUS, cpuUSPerOp float64
	tailPct                            float64
	p99US                              float64
	ops                                int
}

// summarize takes the window's figures over all its samples. The tail is
// the highest of tailPercentiles that leaves at least ten samples beyond
// it.
func summarize(w *window) summary {
	lats := make([]float64, len(w.lats))
	for i, l := range w.lats {
		lats[i] = float64(l) / 1e3
	}
	slices.Sort(lats)
	sum := summary{ops: len(lats), tailPct: tailPercentiles[len(tailPercentiles)-1]}
	for _, p := range tailPercentiles {
		if float64(len(lats))*(1-p/100) >= 10 {
			sum.tailPct = p
			break
		}
	}
	sum.opsPerS = float64(len(lats)) / w.elapsed.Seconds()
	sum.p50US = quantile(lats, 0.5)
	sum.tailUS = quantile(lats, sum.tailPct/100)
	sum.p99US = quantile(lats, 0.99)
	sum.cpuUSPerOp = float64(w.cpu.Nanoseconds()) / 1e3 / float64(max(len(lats), 1))
	return sum
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeapMB forces collections until the heap settles and returns the
// live heap in MiB.
func liveHeapMB() float64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// procSnap holds the Go runtime's allocation and GC CPU counters.
type procSnap struct {
	mallocs, allocBytes uint64
	gcCPU, busyCPU      float64
}

var procSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/cpu/classes/idle:cpu-seconds"},
}

func readProc() procSnap {
	s := slices.Clone(procSamples)
	metrics.Read(s)
	return procSnap{
		mallocs:    s[0].Value.Uint64(),
		allocBytes: s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		busyCPU:    s[3].Value.Float64() - s[4].Value.Float64(),
	}
}

// counters are the runtime's own counters, summed over a set of spaces
// and keyed by what they count.
type counters map[string]uint64

func readCounters(e env) counters {
	c := counters{}
	for _, sp := range e.spaces() {
		m := sp.Metrics()
		c["bytes"] += m.BytesSent.Load() + m.BytesRecv.Load()
		c["dials"] += m.PoolMisses.Load()
		c["dirty"] += m.DirtySent.Load()
		c["result_acks"] += m.ResultAcksSent.Load()
		c["cleans"] += m.CleanSent.Load()
		c["clean_batches"] += m.CleanBatches.Load()
		c["liveness"] += m.PingsSent.Load() + m.LeasesSent.Load()
		c["retries"] += m.RPCRetries.Load() + m.CleanRetries.Load()
		c["pipelined"] += m.PipelineCalls.Load()
		c["oneways"] += m.OneWaysSent.Load()
		c["broken"] += m.PipelineBroken.Load()
		c["pipe_fallbacks"] += m.PipelineFallbacks.Load()
		c["shuffle_bytes"] += m.DistShuffleBytes.Load()
		c["exports_contention"] += sp.Exports().Contention()
		c["imports_contention"] += sp.Imports().Contention()
	}
	m := e.coordinator().Metrics()
	c["coord_bytes"] = m.BytesSent.Load() + m.BytesRecv.Load()
	return c
}

// since returns how much each counter grew after before.
func (c counters) since(before counters) counters {
	d := counters{}
	for k, v := range c {
		d[k] = v - before[k]
	}
	return d
}

// outboundSessions counts the live sessions the instance's spaces dialed;
// each peer link is counted once, from the side that dialed it.
func outboundSessions(e env) int {
	n := 0
	for _, sp := range e.spaces() {
		for _, s := range sp.Observability().Debug().Sessions {
			if s.Dir == "out" {
				n++
			}
		}
	}
	return n
}

// tableSizes sums the export and import table sizes over the instance.
func tableSizes(e env) (exports, imports int) {
	for _, sp := range e.spaces() {
		exports += sp.Exports().Len()
		imports += sp.Imports().Len()
	}
	return exports, imports
}

// perOp divides a count by the op count.
func perOp(v uint64, ops int) float64 { return ratio(float64(v), float64(ops)) }
