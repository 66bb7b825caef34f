package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand/v2"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"netobjects"
	"netobjects/internal/baseline/srcrpc"
	"netobjects/internal/flow"
	"netobjects/internal/pickle"
	"netobjects/internal/transport"
	"netobjects/internal/wire"
)

// The layer probes time calls into single layers' public functions with
// the calls mix's inputs. Loop probes run the same two-caller closed loop
// as the calls workload for probeLoop; codec probes repeat probeBatches
// batches and report the median batch.
const (
	probeLoop    = time.Second
	probeBatches = 5
	probeBatchN  = 20000
)

// mixShape is one entry of the calls mix — a kind on one path — with its
// pickled arguments and its request and reply frames.
type mixShape struct {
	draw     callDraw
	vals     []reflect.Value
	argTypes []reflect.Type
	args     []byte
	request  []byte
	reply    []byte
}

// mixShapes pickles every kind of the calls mix on both paths.
func mixShapes(p *pickle.Pickler, in *callInputs) ([]mixShape, error) {
	var out []mixShape
	for k := range numKinds {
		for _, typed := range []bool{false, true} {
			d := callDraw{kind: uint8(k), typed: typed}
			s := mixShape{draw: d}
			for _, a := range in.argsOf(d) {
				s.vals = append(s.vals, reflect.ValueOf(a))
				s.argTypes = append(s.argTypes, reflect.TypeOf(a))
			}
			var err error
			if s.args, err = pickleArgs(p, s, nil); err != nil {
				return nil, err
			}
			var result []any
			switch k {
			case kindFourInts:
				result = []any{int64(0)}
			case kindStruct:
				result = []any{in.structs[0]}
			case kindText:
				result = []any{uint64(0)}
			}
			var res []byte
			if typed {
				vals := make([]reflect.Value, len(result))
				for i, r := range result {
					vals[i] = reflect.ValueOf(r)
				}
				res, err = p.MarshalValues(nil, vals)
			} else {
				res, err = p.MarshalAnySession(nil, result, nil)
			}
			if err != nil {
				return nil, err
			}
			s.request = wire.Marshal(nil, mixCall(s))
			s.reply = wire.Marshal(nil, &wire.Result{Status: wire.StatusOK, Results: res})
			out = append(out, s)
		}
	}
	return out, nil
}

// pickleArgs pickles the shape's arguments the way its path does.
func pickleArgs(p *pickle.Pickler, s mixShape, buf []byte) ([]byte, error) {
	if s.draw.typed {
		return p.MarshalValues(buf, s.vals)
	}
	anys := make([]any, len(s.vals))
	for i, v := range s.vals {
		anys[i] = v.Interface()
	}
	return p.MarshalAnySession(buf, anys, nil)
}

func mixCall(s mixShape) *wire.Call {
	return &wire.Call{Obj: 1, Method: kindMethods[s.draw.kind], Fingerprint: callFingerprint,
		Typed: s.draw.typed, Args: s.args, ID: 1}
}

// shapeOf maps a draw to its index in mixShapes' result.
func shapeOf(d callDraw) int {
	i := int(d.kind) * 2
	if d.typed {
		i++
	}
	return i
}

// batchNS runs f probeBatches times over probeBatchN iterations each and
// returns the median time per iteration in nanoseconds.
func batchNS(tr *spanTracer, name string, f func(i int) error) (float64, error) {
	var per []float64
	for range probeBatches {
		t0 := time.Now()
		for i := range probeBatchN {
			if err := f(i); err != nil {
				return 0, fmt.Errorf("%s: %w", name, err)
			}
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/probeBatchN)
		tr.probe(name, t0)
	}
	return median(per), nil
}

// loopP50 runs f from two closed-loop callers for probeLoop and returns
// the median latency in µs. Each caller draws from its own seeded stream.
func loopP50(tr *spanTracer, name string, seed uint64, f func(rng *rand.Rand) error) (float64, error) {
	t0 := time.Now()
	lats := make([][]float64, 2)
	errs := make([]error, 2)
	deadline := t0.Add(probeLoop)
	var wg sync.WaitGroup
	for c := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed, uint64(c)+1))
			for time.Now().Before(deadline) {
				s := time.Now()
				if errs[c] = f(rng); errs[c] != nil {
					return
				}
				lats[c] = append(lats[c], float64(time.Since(s).Nanoseconds())/1e3)
			}
		}()
	}
	wg.Wait()
	tr.probe(name, t0)
	for _, err := range errs {
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
	}
	return median(append(lats[0], lats[1]...)), nil
}

// runProbes measures the codec, session, raw-RPC and null-call probes.
func runProbes(m metricSet, seed uint64, tr *spanTracer) error {
	in := newCallInputs(seed)
	tcp := netobjects.NewTCP()
	own, err := netobjects.New(netobjects.Options{Name: "probe-owner", Transports: []netobjects.Transport{tcp}})
	if err != nil {
		return err
	}
	defer own.Close()
	client, err := netobjects.New(netobjects.Options{Name: "probe-client", Transports: []netobjects.Transport{tcp}})
	if err != nil {
		return err
	}
	defer client.Close()
	p := client.Pickler()
	shapes, err := mixShapes(p, in)
	if err != nil {
		return err
	}

	// pickle: the mix's argument tuples, cycling through every shape.
	var argBytes int
	for _, s := range shapes {
		argBytes += len(s.args)
	}
	m["pickle.arg_bytes"] = float64(argBytes) / float64(len(shapes))
	var buf []byte
	if m["pickle.marshal_ns"], err = batchNS(tr, "pickle.marshal", func(i int) error {
		var perr error
		buf, perr = pickleArgs(p, shapes[i%len(shapes)], buf[:0])
		return perr
	}); err != nil {
		return err
	}
	if m["pickle.unmarshal_ns"], err = batchNS(tr, "pickle.unmarshal", func(i int) error {
		s := shapes[i%len(shapes)]
		if s.draw.typed {
			_, err := p.UnmarshalValues(s.args, s.argTypes)
			return err
		}
		_, err := p.UnmarshalAnySession(s.args, nil)
		return err
	}); err != nil {
		return err
	}

	// wire: the Call frames carrying those arguments.
	calls := make([]*wire.Call, len(shapes))
	for i, s := range shapes {
		calls[i] = mixCall(s)
	}
	if m["wire.call_encode_ns"], err = batchNS(tr, "wire.encode", func(i int) error {
		buf = wire.Marshal(buf[:0], calls[i%len(calls)])
		return nil
	}); err != nil {
		return err
	}
	var dec wire.Call
	if m["wire.call_decode_ns"], err = batchNS(tr, "wire.decode", func(i int) error {
		return wire.UnmarshalInto(shapes[i%len(shapes)].request, &dec)
	}); err != nil {
		return err
	}

	if m["transport.session_rtt_us"], err = probeSession(tr, seed, shapes); err != nil {
		return err
	}
	if m["srcrpc.rtt_us"], err = probeSRCRPC(tr, seed); err != nil {
		return err
	}

	// The null object call, same loop, half dynamic and half typed.
	if err := netobjects.RegisterRemoteInterface[CallService](own, nil); err != nil {
		return err
	}
	w, err := exportWire(own, &callService{})
	if err != nil {
		return err
	}
	ref, err := client.Import(w)
	if err != nil {
		return err
	}
	null, err := loopP50(tr, "core.null", seed, func(rng *rand.Rand) error {
		return in.invoke(context.Background(), ref, callDraw{kind: kindNull, typed: rng.IntN(2) == 1})
	})
	if err != nil {
		return err
	}
	m["core.vs_srcrpc"] = null / m["srcrpc.rtt_us"]
	fmt.Printf("probe: null object call p50 %.2f us, srcrpc null p50 %.2f us\n", null, m["srcrpc.rtt_us"])
	return probeFlow(m, tr, seed, own, client)
}

// bulkBytes is the flow probe's argument size: sixteen 64 KiB chunks,
// four times the 256 KiB stream window, so every call is chunked and
// waits for credit.
const bulkBytes = 1 << 20

// bulkSink is the flow probe's object.
type bulkSink struct{}

// Sum returns b's CRC-32 so the caller can check what arrived.
func (*bulkSink) Sum(b []byte) (uint32, error) { return crc32.ChecksumIEEE(b), nil }

// probeFlow passes seeded 1 MiB byte slices from client to an object of
// own's under the two-caller loop and reports the flow layer's counters
// per call.
func probeFlow(m metricSet, tr *spanTracer, seed uint64, own, client *netobjects.Space) error {
	rng := rand.New(rand.NewPCG(seed, 0xb01c))
	bufs := make([][]byte, 4)
	sums := make([]uint32, len(bufs))
	for i := range bufs {
		bufs[i] = make([]byte, bulkBytes)
		for j := 0; j < bulkBytes; j += 8 {
			binary.LittleEndian.PutUint64(bufs[i][j:], rng.Uint64())
		}
		sums[i] = crc32.ChecksumIEEE(bufs[i])
	}
	w, err := exportWire(own, &bulkSink{})
	if err != nil {
		return err
	}
	ref, err := client.Import(w)
	if err != nil {
		return err
	}
	type flowCounts struct{ chunks, updates, stalls, fallbacks uint64 }
	read := func() flowCounts {
		var c flowCounts
		for _, sp := range []*netobjects.Space{own, client} {
			fm := sp.Metrics()
			c.chunks += fm.FlowChunksSent.Load()
			c.updates += fm.FlowWindowUpdatesSent.Load()
			c.stalls += fm.FlowWriterStalls.Load()
			c.fallbacks += fm.FlowFallbacks.Load()
		}
		return c
	}
	var calls atomic.Uint64
	c0 := read()
	if m["flow.bulk_call_us"], err = loopP50(tr, "flow.bulk", seed, func(rng *rand.Rand) error {
		i := rng.IntN(len(bufs))
		outs, err := ref.CallCtx(context.Background(), "Sum", bufs[i])
		if err != nil {
			return err
		}
		if len(outs) != 1 || outs[0] != any(sums[i]) {
			return fmt.Errorf("bulk call returned %v, want CRC %d", outs, sums[i])
		}
		calls.Add(1)
		return nil
	}); err != nil {
		return err
	}
	c1 := read()
	n := int(calls.Load())
	m["flow.chunks_per_op"] = perOp(c1.chunks-c0.chunks, n)
	m["flow.window_updates_per_op"] = perOp(c1.updates-c0.updates, n)
	m["flow.writer_stalls_per_op"] = perOp(c1.stalls-c0.stalls, n)
	m["flow.fallbacks"] = float64(c1.fallbacks - c0.fallbacks)
	fmt.Printf("probe: %d bulk calls of %d KiB, p50 %.0f us\n", n, bulkBytes>>10, m["flow.bulk_call_us"])
	return nil
}

// probeSession echoes the calls mix's frames over a bare TCP session: the
// client sends a shape's request frame, the server answers with its
// reply frame.
func probeSession(tr *spanTracer, seed uint64, shapes []mixShape) (float64, error) {
	tcp := transport.NewTCP()
	l, err := tcp.Listen("")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	echo := func(st *transport.Stream) {
		defer st.Close()
		req, err := st.Recv(nil)
		if err != nil || len(req) == 0 {
			return
		}
		_ = st.Send(shapes[int(req[0])%len(shapes)].reply)
	}
	accepted := make(chan transport.Conn, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			close(accepted)
			return
		}
		accepted <- c
	}()
	_, addr, err := wire.SplitEndpoint(l.Endpoint())
	if err != nil {
		return 0, err
	}
	cc, err := tcp.Dial(addr)
	if err != nil {
		return 0, err
	}
	sc, ok := <-accepted
	if !ok {
		cc.Close()
		return 0, fmt.Errorf("session probe: accept failed")
	}
	server := transport.NewSession(sc, transport.SessionOptions{Accept: echo, Flow: &flow.Params{}})
	client := transport.NewSession(cc, transport.SessionOptions{Flow: &flow.Params{}})
	defer func() {
		client.Close()
		server.Close()
		client.Wait()
		server.Wait()
	}()
	// A request is the shape's index byte followed by its Call frame.
	reqs := make([][]byte, len(shapes))
	for i, s := range shapes {
		reqs[i] = append([]byte{byte(i)}, s.request...)
	}
	return loopP50(tr, "transport.session", seed, func(rng *rand.Rand) error {
		i := shapeOf(drawCall(rng))
		st, err := client.Open()
		if err != nil {
			return err
		}
		defer st.Close()
		if err := st.Send(reqs[i]); err != nil {
			return err
		}
		reply, err := st.Recv(nil)
		if err != nil {
			return err
		}
		if len(reply) != len(shapes[i].reply) {
			return fmt.Errorf("session echo: %d-byte reply, want %d", len(reply), len(shapes[i].reply))
		}
		return nil
	})
}

// probeSRCRPC times the raw-RPC null call over TCP.
func probeSRCRPC(tr *spanTracer, seed uint64) (float64, error) {
	reg := transport.NewRegistry(transport.NewTCP())
	l, err := reg.Listen("tcp:")
	if err != nil {
		return 0, err
	}
	srv := srcrpc.NewServer()
	srv.Handle("null", func([]byte) ([]byte, error) { return nil, nil })
	srv.Serve(l)
	defer srv.Close()
	cl := srcrpc.NewClient(reg, 0)
	defer cl.Close()
	ep := l.Endpoint()
	return loopP50(tr, "srcrpc", seed, func(*rand.Rand) error {
		_, err := cl.Call(ep, "null", nil)
		return err
	})
}

// probeLookup times export-table lookups of seeded random live indices
// at sp's current table size.
func probeLookup(sp *netobjects.Space, seed uint64) (float64, error) {
	exps := sp.Exports()
	var idx []uint64
	for _, e := range exps.Snapshot() {
		idx = append(idx, e.Index)
	}
	if len(idx) == 0 {
		return 0, fmt.Errorf("lookup probe: %s exports nothing", sp.Endpoints())
	}
	rng := rand.New(rand.NewPCG(seed, 0x100c))
	picks := make([]uint64, 4096)
	for i := range picks {
		picks[i] = idx[rng.IntN(len(idx))]
	}
	return batchNS(nil, "objtable.lookup", func(i int) error {
		if _, ok := exps.Lookup(picks[i%len(picks)]); !ok {
			return fmt.Errorf("index %d not found", picks[i%len(picks)])
		}
		return nil
	})
}
