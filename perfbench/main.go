// Command perfbench is the repository benchmark. It runs one seeded
// workload against the runtime's public API, checks every result, and
// prints its metrics by name and unit; the last line of standard output
// is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured untraced.
// With -trace 1 they are the per-layer ones: the window is split into an
// untraced half (counters, baseline latency) and a traced half (spans
// from the benchmark's own boundaries and the runtime's Options.Tracer
// hook), followed by the layer probes. BENCHMARK.json names every metric
// with its unit and better direction; metrics.json gives its layer, and
// for per-layer metrics the end-to-end metrics and workloads it should
// move. Run it from the repository root through the wrapper, which builds
// it first:
//
//	python3 perfbench/run.py --workload calls --seed 1 --seconds 10 --trace 0
//
// Workloads: calls (small object calls over loopback TCP), refs
// (third-party reference transfers over a 2^16-object working set) and
// sort (distributed radix sort over inmem). All load comes from this one
// process, from closed-loop callers that wait for their replies.
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"time"
)

// metrics.json holds what BENCHMARK.json's fixed keys cannot: each
// workload's transport and each metric's layer and description, and for
// per-layer metrics the end-to-end metrics and workloads it should move,
// keyed by name.
//
//go:embed metrics.json
var metricsJSON []byte

type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// catalogue is the part of BENCHMARK.json the program reads.
type catalogue struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// loadCatalogue reads BENCHMARK.json from the working directory, the
// repository root, and checks that metrics.json describes exactly its
// workloads and metrics and that each workload is implemented here.
func loadCatalogue() (*catalogue, error) {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var cat catalogue
	if err := json.Unmarshal(raw, &cat); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	var ex struct {
		Workloads map[string]json.RawMessage `json:"workloads"`
		EndToEnd  map[string]json.RawMessage `json:"end_to_end"`
		PerLayer  map[string]json.RawMessage `json:"per_layer"`
	}
	if err := json.Unmarshal(metricsJSON, &ex); err != nil {
		return nil, fmt.Errorf("metrics.json: %w", err)
	}
	var wls []string
	for _, wl := range cat.Workloads {
		if workloads[wl.Name] == nil {
			return nil, fmt.Errorf("BENCHMARK.json declares workload %q, which perfbench does not implement", wl.Name)
		}
		wls = append(wls, wl.Name)
	}
	names := func(defs []metricDef) []string {
		var out []string
		for _, d := range defs {
			out = append(out, d.Name)
		}
		return out
	}
	for _, sec := range []struct {
		key       string
		declared  []string
		described map[string]json.RawMessage
	}{
		{"workloads", wls, ex.Workloads},
		{"end_to_end", names(cat.EndToEnd), ex.EndToEnd},
		{"per_layer", names(cat.PerLayer), ex.PerLayer},
	} {
		for _, n := range sec.declared {
			if _, ok := sec.described[n]; !ok {
				return nil, fmt.Errorf("metrics.json %s has no entry for %q", sec.key, n)
			}
		}
		for n := range sec.described {
			if !slices.Contains(sec.declared, n) {
				return nil, fmt.Errorf("metrics.json %s describes %q, which BENCHMARK.json does not declare", sec.key, n)
			}
		}
	}
	return &cat, nil
}

// metricSet collects measured values by metric name.
type metricSet map[string]float64

// workload describes how to build one instance of a workload and how
// many closed-loop callers drive it.
type workload struct {
	callers int
	// setups is how many times an untraced run sets the workload up; the
	// median is setup_s.
	setups int
	// heapOps is how many ops an untraced run makes between set-up and
	// the window, after which it reads live_heap_mb.
	heapOps int
	setup   func(seed uint64, tr *spanTracer) (env, error)
}

// traceDir is where a traced run writes its spans.
var traceDir string

var workloads = map[string]*workload{
	"calls": {callers: 2, setups: 41, heapOps: 20000, setup: setupCalls},
	"refs":  {callers: refCallers, setups: 5, heapOps: 8000, setup: setupRefs},
	"sort":  {callers: 1, setups: 11, heapOps: 8, setup: setupSort},
}

func main() {
	name := flag.String("workload", "", "workload: calls, refs or sort")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs derive from")
	seconds := flag.Float64("seconds", 10, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "1 for the traced run and per-layer metrics")
	flag.StringVar(&traceDir, "traces", ".bench_build/traces", "directory the traced run writes its spans to")
	flag.Parse()
	if err := run(*name, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, d time.Duration, traced bool) error {
	cat, err := loadCatalogue()
	if err != nil {
		return err
	}
	w := workloads[name]
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	if d <= 0 {
		return errors.New("seconds must be positive")
	}
	m := metricSet{}
	var res *outcome
	defs := cat.EndToEnd
	if traced {
		defs = cat.PerLayer
		res, err = runTraced(name, w, seed, d, m)
	} else {
		res, err = runUntraced(w, seed, d, m)
	}
	if err != nil {
		return err
	}
	return report(name, res, m, defs)
}

// outcome is what a run attempted and whether every check passed.
type outcome struct {
	attempted, failed uint64
	checkErr          error
}

func (o *outcome) add(w *window) {
	o.attempted += w.attempted
	o.failed += w.failed
	if w.firstErr != nil && o.checkErr == nil {
		o.checkErr = fmt.Errorf("op failed: %w", w.firstErr)
	}
}

// setupTimed builds one instance and returns how long it took.
func setupTimed(w *workload, seed uint64, tr *spanTracer) (env, time.Duration, error) {
	t0 := time.Now()
	e, err := w.setup(seed, tr)
	return e, time.Since(t0), err
}

// runUntraced measures the end-to-end metrics.
func runUntraced(w *workload, seed uint64, d time.Duration, m metricSet) (*outcome, error) {
	var times []float64
	var e env
	for i := range w.setups {
		var took time.Duration
		var err error
		e, took, err = setupTimed(w, seed, nil)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, took.Seconds())
		if i < w.setups-1 {
			e.close()
		}
	}
	defer e.close()
	m["setup_s"] = median(times)

	// The live heap is read after a fixed number of ops, not after the
	// window, so that it does not grow with throughput where ops leak.
	o := &outcome{}
	o.add(runOps(e, w.callers, w.heapOps, seed))
	m["live_heap_mb"] = liveHeapMB()

	before := readCounters(e)
	win := runWindow(e, w.callers, d, seed, nil)
	delta := readCounters(e).since(before)

	sum := summarize(win)
	m["ops_per_s"] = sum.opsPerS
	m["op_p50_us"] = sum.p50US
	m["op_tail_us"] = sum.tailUS
	m["cpu_us_per_op"] = sum.cpuUSPerOp
	m["coord_byte_share"] = float64(delta["coord_bytes"]) / float64(max(win.payload, 1))
	fmt.Printf("window: %d ops in %.2fs; tail is p%g; p99 %.1f us\n",
		sum.ops, win.elapsed.Seconds(), sum.tailPct, sum.p99US)

	o.add(win)
	win = nil
	fmt.Printf("live heap after %d ops: %.1f MiB; after the window: %.1f MiB\n",
		w.heapOps, m["live_heap_mb"], liveHeapMB())
	if err := e.finish(m); err != nil && o.checkErr == nil {
		o.checkErr = err
	}
	share := 0.0
	if o.attempted > 0 {
		share = float64(o.failed) / float64(o.attempted)
	}
	fmt.Printf("metric failed_op_share = %g share\n", share)
	return o, nil
}

// runTraced measures the per-layer metrics: an untraced half for the
// runtime's counters and the baseline latency, a traced half for spans,
// then the layer probes.
func runTraced(name string, w *workload, seed uint64, d time.Duration, m metricSet) (*outcome, error) {
	o := &outcome{}
	half := d / 2

	e, _, err := setupTimed(w, seed, nil)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	before := readCounters(e)
	p0 := readProc()
	win := runWindow(e, w.callers, half, seed, nil)
	p1 := readProc()
	c := readCounters(e).since(before)
	o.add(win)
	ops := len(win.lats)
	untracedP50 := summarize(win).p50US
	layerCounters(m, c, ops, e)
	m["proc.allocs_per_op"] = perOp(p1.mallocs-p0.mallocs, ops)
	m["proc.alloc_bytes_per_op"] = perOp(p1.allocBytes-p0.allocBytes, ops)
	m["proc.gc_cpu_share"] = ratio(p1.gcCPU-p0.gcCPU, p1.busyCPU-p0.busyCPU)
	if m["objtable.export_lookup_ns"], err = probeLookup(e.owner(), seed); err != nil {
		e.close()
		return nil, err
	}
	m["dgc.reclaim_s"] = 0 // measured by the workloads that release a working set
	if err := e.finish(m); err != nil && o.checkErr == nil {
		o.checkErr = err
	}
	e.close()

	tr := newSpanTracer(w.callers)
	e, _, err = setupTimed(w, seed, tr)
	if err != nil {
		return nil, fmt.Errorf("traced set-up: %w", err)
	}
	// Spans recorded during set-up are not part of any op.
	tr.reset()
	win = runWindow(e, w.callers, half, seed, tr)
	tr.freeze()
	o.add(win)
	tracedP50 := summarize(win).p50US
	tracedOps := len(win.lats)
	if err := e.finish(metricSet{}); err != nil && o.checkErr == nil {
		o.checkErr = err
	}
	e.close()
	m["core.call_us"] = tr.p50(layerCall)
	m["core.serve_us"] = tr.p50(layerServe)
	m["core.method_us"] = tr.p50(layerMethod)
	m["dgc.dirty_us"] = tr.p50(layerDirty)
	m["dgc.clean_us"] = tr.p50(layerClean)
	phases := []struct {
		metric  string
		methods []string
	}{
		{"load", []string{"Load", "Stage"}},
		{"group", []string{"Group"}},
		{"setplan", []string{"SetPlan"}},
		{"gather", []string{"Gather"}},
		{"barrier", []string{"Barrier"}},
		{"digest", []string{"Summary"}},
	}
	for _, ph := range phases {
		var sum time.Duration
		for _, meth := range ph.methods {
			sum += tr.sum(layerSorter, meth)
		}
		m["distarray.phase_ms."+ph.metric] = float64(sum.Nanoseconds()) / 1e6 / float64(max(tracedOps, 1))
	}
	if untracedP50 > 0 {
		m["obs.trace_overhead"] = tracedP50/untracedP50 - 1
	}

	if err := runProbes(m, seed, tr); err != nil {
		return nil, fmt.Errorf("layer probes: %w", err)
	}
	m["core.overhead_us"] = m["core.call_us"] - m["transport.session_rtt_us"] - m["core.method_us"]

	tr.printSelfTimes(os.Stdout)
	path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.jsonl", name, seed))
	if err := tr.writeSpans(path); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Printf("spans written to %s\n", path)
	return o, nil
}

// layerCounters derives the counter-based per-layer metrics from the
// untraced half's counter deltas.
func layerCounters(m metricSet, c counters, ops int, e env) {
	m["transport.bytes_per_op"] = perOp(c["bytes"], ops)
	m["transport.dials"] = float64(c["dials"])
	m["transport.sessions"] = float64(outboundSessions(e))
	m["objtable.exports_contention"] = 1000 * perOp(c["exports_contention"], ops)
	m["objtable.imports_contention"] = 1000 * perOp(c["imports_contention"], ops)
	ex, im := tableSizes(e)
	m["objtable.exports_live"] = float64(ex)
	m["objtable.imports_live"] = float64(im)
	m["dgc.dirty_per_op"] = perOp(c["dirty"], ops)
	m["dgc.result_acks_per_op"] = perOp(c["result_acks"], ops)
	m["dgc.cleans_per_batch"] = ratio(float64(c["cleans"]), float64(c["clean_batches"]))
	m["dgc.liveness_msgs"] = float64(c["liveness"])
	m["dgc.retries"] = float64(c["retries"])
	m["promise.pipelined_per_op"] = perOp(c["pipelined"], ops)
	m["promise.oneways_per_op"] = perOp(c["oneways"], ops)
	m["promise.broken"] = float64(c["broken"])
	m["promise.fallbacks"] = float64(c["pipe_fallbacks"])
	m["distarray.shuffle_bytes_per_op"] = perOp(c["shuffle_bytes"], ops)
	m["distarray.host_bytes_per_op"] = perOp(c["coord_bytes"], ops)
}

// ratio returns a/b, or 0 when b is not positive.
func ratio(a, b float64) float64 {
	if b <= 0 {
		return 0
	}
	return a / b
}

// report prints every metric of defs by name and unit, then the result
// line. It fails when a metric is missing or not a number, and, after
// printing the result line, when an op or a check failed.
func report(name string, o *outcome, m metricSet, defs []metricDef) error {
	out := map[string]any{}
	var missing []string
	for _, d := range defs {
		v, ok := m[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			missing = append(missing, d.Name)
			continue
		}
		fmt.Printf("metric %s = %g %s\n", d.Name, v, d.Unit)
		out[d.Name] = map[string]any{"value": v, "unit": d.Unit}
	}
	if len(missing) > 0 {
		slices.Sort(missing)
		return fmt.Errorf("workload %s measured no value for %v", name, missing)
	}
	correct := o.checkErr == nil && o.failed == 0
	line, err := json.Marshal(map[string]any{
		"correct":   correct,
		"attempted": o.attempted,
		"failed":    o.failed,
		"metrics":   out,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !correct {
		return fmt.Errorf("check failed: %v (%d of %d ops failed)", o.checkErr, o.failed, o.attempted)
	}
	return nil
}
