package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"reflect"
	"slices"
	"time"

	"netobjects"
)

// Payload is the small-struct argument of the calls mix.
type Payload struct {
	A string
	B int64
	C float64
	D []int32
}

func init() { netobjects.Register(Payload{}) }

// CallService is the remote interface of the calls workload; its
// fingerprint guards the typed half of the mix.
type CallService interface {
	Null() error
	FourInts(a, b, c, d int64) (int64, error)
	Struct(p Payload) (Payload, error)
	Text(s string) (uint64, error)
}

// callService is the owner's object. Its methods check nothing and do
// almost nothing; in traced runs they record their own span.
type callService struct{ tr *spanTracer }

func (s *callService) Null() error {
	if s.tr != nil {
		defer s.tr.method(layerMethod, "Null", time.Now())
	}
	return nil
}

func (s *callService) FourInts(a, b, c, d int64) (int64, error) {
	if s.tr != nil {
		defer s.tr.method(layerMethod, "FourInts", time.Now())
	}
	return a + b + c + d, nil
}

func (s *callService) Struct(p Payload) (Payload, error) {
	if s.tr != nil {
		defer s.tr.method(layerMethod, "Struct", time.Now())
	}
	return p, nil
}

func (s *callService) Text(t string) (uint64, error) {
	if s.tr != nil {
		defer s.tr.method(layerMethod, "Text", time.Now())
	}
	return hashString(t), nil
}

func hashString(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// The calls mix: each op draws one of these kinds uniformly, and half of
// the ops go through the typed path.
const (
	kindNull = iota
	kindFourInts
	kindStruct
	kindText
	numKinds
)

var kindMethods = [numKinds]string{"Null", "FourInts", "Struct", "Text"}

// kindPayload is the application data one op of each kind carries:
// argument and result values at their natural sizes.
var kindPayload = [numKinds]int{
	kindNull:     0,
	kindFourInts: 4*8 + 8,
	kindStruct:   2 * (16 + 8 + 8 + 8*4),
	kindText:     1024 + 8,
}

// callInputs is a seeded pool of arguments the ops pick from, generated
// before any set-up so the program receives only generated inputs.
type callInputs struct {
	ints    [][4]int64
	structs []Payload
	texts   []string
}

const inputPool = 64

func newCallInputs(seed uint64) *callInputs {
	rng := rand.New(rand.NewPCG(seed, 0xca11))
	in := &callInputs{}
	letters := "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
	str := func(n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = letters[rng.IntN(len(letters))]
		}
		return string(b)
	}
	for range inputPool {
		in.ints = append(in.ints, [4]int64{rng.Int64(), rng.Int64(), rng.Int64(), rng.Int64()})
		d := make([]int32, 8)
		for i := range d {
			d[i] = rng.Int32()
		}
		in.structs = append(in.structs, Payload{A: str(16), B: rng.Int64(), C: rng.Float64(), D: d})
		in.texts = append(in.texts, str(1024))
	}
	return in
}

// callDraw is one op's generated inputs.
type callDraw struct {
	kind  uint8
	typed bool
	pick  int
}

func drawCall(rng *rand.Rand) callDraw {
	return callDraw{kind: uint8(rng.IntN(numKinds)), typed: rng.IntN(2) == 1, pick: rng.IntN(inputPool)}
}

// argsOf returns the draw's argument tuple.
func (in *callInputs) argsOf(d callDraw) []any {
	switch d.kind {
	case kindFourInts:
		v := in.ints[d.pick]
		return []any{v[0], v[1], v[2], v[3]}
	case kindStruct:
		return []any{in.structs[d.pick]}
	case kindText:
		return []any{in.texts[d.pick]}
	}
	return nil
}

var (
	callFingerprint = netobjects.FingerprintOf[CallService]()
	resultTypes     = [numKinds][]reflect.Type{
		kindFourInts: {netobjects.TypeFor[int64]()},
		kindStruct:   {netobjects.TypeFor[Payload]()},
		kindText:     {netobjects.TypeFor[uint64]()},
	}
)

// invoke performs one call of the mix on ref and checks its result
// against its arguments.
func (in *callInputs) invoke(ctx context.Context, ref *netobjects.Ref, d callDraw) error {
	args := in.argsOf(d)
	method := kindMethods[d.kind]
	var got any
	if d.typed {
		vals := make([]reflect.Value, len(args))
		for i, a := range args {
			vals[i] = reflect.ValueOf(a)
		}
		outs, err := ref.InvokeTypedCtx(ctx, method, callFingerprint, vals, resultTypes[d.kind])
		if err != nil {
			return err
		}
		if len(outs) != len(resultTypes[d.kind]) {
			return fmt.Errorf("%s: %d results, want %d", method, len(outs), len(resultTypes[d.kind]))
		}
		if len(outs) == 1 {
			got = outs[0].Interface()
		}
	} else {
		outs, err := ref.CallCtx(ctx, method, args...)
		if err != nil {
			return err
		}
		if len(outs) != len(resultTypes[d.kind]) {
			return fmt.Errorf("%s: %d results, want %d", method, len(outs), len(resultTypes[d.kind]))
		}
		if len(outs) == 1 {
			got = outs[0]
		}
	}
	return in.check(d, got)
}

// check compares a result with what the arguments determine.
func (in *callInputs) check(d callDraw, got any) error {
	ok := true
	switch d.kind {
	case kindFourInts:
		v := in.ints[d.pick]
		r, isInt := got.(int64)
		ok = isInt && r == v[0]+v[1]+v[2]+v[3]
	case kindStruct:
		want := in.structs[d.pick]
		r, isP := got.(Payload)
		ok = isP && r.A == want.A && r.B == want.B && r.C == want.C && slices.Equal(r.D, want.D)
	case kindText:
		r, isU := got.(uint64)
		ok = isU && r == hashString(in.texts[d.pick])
	}
	if !ok {
		return fmt.Errorf("%s (typed=%v): wrong result %v", kindMethods[d.kind], d.typed, got)
	}
	return nil
}

// callsEnv is an owner and a client space over loopback TCP with default
// options; the client holds one surrogate for the owner's service.
type callsEnv struct {
	own, client *netobjects.Space
	ref         *netobjects.Ref
	in          *callInputs
}

func setupCalls(seed uint64, tr *spanTracer) (env, error) {
	e := &callsEnv{in: newCallInputs(seed)}
	var err error
	if e.own, err = netobjects.New(netobjects.Options{Name: "owner", Tracer: tr.forSpace("owner")}); err != nil {
		return nil, err
	}
	if e.client, err = netobjects.New(netobjects.Options{Name: "client", Tracer: tr.forSpace("client")}); err != nil {
		e.own.Abort()
		return nil, err
	}
	fail := func(err error) (env, error) {
		e.close()
		return nil, err
	}
	if err := netobjects.RegisterRemoteInterface[CallService](e.own, nil); err != nil {
		return fail(err)
	}
	owned, err := e.own.Export(&callService{tr: tr})
	if err != nil {
		return fail(err)
	}
	w, err := owned.WireRep()
	if err != nil {
		return fail(err)
	}
	if e.ref, err = e.client.Import(w); err != nil {
		return fail(err)
	}
	// Warm every method on both paths.
	for k := range numKinds {
		for i := range 16 {
			d := callDraw{kind: uint8(k), typed: i%2 == 1, pick: i}
			if err := e.in.invoke(context.Background(), e.ref, d); err != nil {
				return fail(fmt.Errorf("warm-up: %w", err))
			}
		}
	}
	return e, nil
}

func (e *callsEnv) op(_ int, rng *rand.Rand) (int, error) {
	d := drawCall(rng)
	return kindPayload[d.kind], e.in.invoke(context.Background(), e.ref, d)
}

func (e *callsEnv) spaces() []*netobjects.Space    { return []*netobjects.Space{e.own, e.client} }
func (e *callsEnv) coordinator() *netobjects.Space { return e.client }
func (e *callsEnv) owner() *netobjects.Space       { return e.own }
func (e *callsEnv) finish(metricSet) error         { return nil }

func (e *callsEnv) close() {
	if e.client != nil {
		_ = e.client.Close()
	}
	_ = e.own.Close()
}
