package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"time"

	"netobjects"
	"netobjects/internal/distarray"
)

const (
	sortWorkers = 2
	sortKeys    = 1 << 20
	sortBytes   = sortKeys * distarray.KeyBytes
)

// sortEnv is a host and sortWorkers worker spaces over inmem; the host
// holds a surrogate for each worker's Sorter.
type sortEnv struct {
	host    *netobjects.Space
	workers []*netobjects.Space
	sorters []*netobjects.Ref
}

func setupSort(seed uint64, tr *spanTracer) (env, error) {
	e := &sortEnv{}
	mem := netobjects.NewMem()
	mk := func(name string) (*netobjects.Space, error) {
		sp, err := netobjects.New(netobjects.Options{
			Name:       name,
			Transports: []netobjects.Transport{mem},
			Tracer:     tr.forSpace(name),
		})
		if err != nil {
			return nil, err
		}
		if err := distarray.Register(sp); err != nil {
			sp.Abort()
			return nil, err
		}
		return sp, nil
	}
	var err error
	if e.host, err = mk("host"); err != nil {
		return nil, err
	}
	fail := func(err error) (env, error) {
		e.close()
		return nil, err
	}
	for i := range sortWorkers {
		sp, err := mk(fmt.Sprintf("worker%d", i))
		if err != nil {
			return fail(err)
		}
		e.workers = append(e.workers, sp)
		var sorter distarray.Sorter = distarray.NewSortWorker(distarray.NewStore(sp.Metrics()), 0)
		if tr != nil {
			sorter = &timedSorter{w: sorter, tr: tr}
		}
		w, err := exportWire(sp, sorter)
		if err != nil {
			return fail(err)
		}
		ref, err := e.host.Import(w)
		if err != nil {
			return fail(err)
		}
		e.sorters = append(e.sorters, ref)
	}
	// One warm-up sort allocates the workers' slabs and opens every
	// worker-to-worker session.
	if err := e.sort(seed ^ 0x5eed); err != nil {
		return fail(fmt.Errorf("warm-up sort: %w", err))
	}
	return e, nil
}

// sort runs one verified distributed sort and releases its partitions.
// distarray.Sort checks the result from the workers' digests; the
// shuffle volume must be exactly one data copy per pass.
func (e *sortEnv) sort(seed uint64) error {
	res, err := distarray.Sort(context.Background(), distarray.SortConfig{
		Workers: e.sorters,
		Keys:    sortKeys,
		Seed:    seed,
		Metrics: e.host.Metrics(),
	})
	if err != nil {
		return err
	}
	distarray.ReleaseParts(res.Data)
	distarray.ReleaseParts(res.Stages)
	if want := int64(res.Passes) * sortBytes; res.ShuffledBytes != want {
		return fmt.Errorf("sort shuffled %d bytes, want %d passes x %d", res.ShuffledBytes, res.Passes, sortBytes)
	}
	var n int64
	for _, d := range res.Digests {
		n += d.Count
	}
	if res.Keys != sortKeys || n != sortKeys {
		return fmt.Errorf("sort reports %d keys and digests count %d, want %d", res.Keys, n, sortKeys)
	}
	return nil
}

func (e *sortEnv) op(_ int, rng *rand.Rand) (int, error) {
	return sortBytes, e.sort(rng.Uint64())
}

func (e *sortEnv) spaces() []*netobjects.Space {
	return append([]*netobjects.Space{e.host}, e.workers...)
}
func (e *sortEnv) coordinator() *netobjects.Space { return e.host }
func (e *sortEnv) owner() *netobjects.Space       { return e.workers[0] }

// finish checks that the released partitions left the workers' export
// tables: each worker is back to its Sorter alone.
func (e *sortEnv) finish(metricSet) error {
	return waitFor(10*time.Second, func() bool {
		for _, w := range e.workers {
			if w.Exports().Len() != 1 {
				return false
			}
		}
		return true
	})
}

func (e *sortEnv) close() {
	for _, sp := range e.spaces() {
		if sp != nil {
			_ = sp.Close()
		}
	}
}

// timedSorter wraps a worker's Sorter in traced runs and records each
// method body as a span, giving the sort's per-phase worker time — the
// one-way Gather included, which the runtime's tracer does not report.
type timedSorter struct {
	w  distarray.Sorter
	tr *spanTracer
}

func (s *timedSorter) Load(ctx context.Context, n int64, seed uint64) (distarray.Partition, error) {
	defer s.tr.method(layerSorter, "Load", time.Now())
	return s.w.Load(ctx, n, seed)
}

func (s *timedSorter) Stage(ctx context.Context) (distarray.Partition, error) {
	defer s.tr.method(layerSorter, "Stage", time.Now())
	return s.w.Stage(ctx)
}

func (s *timedSorter) Group(ctx context.Context, shift uint32) ([]int64, error) {
	defer s.tr.method(layerSorter, "Group", time.Now())
	return s.w.Group(ctx, shift)
}

func (s *timedSorter) SetPlan(ctx context.Context, stages distarray.Array, counts [][]int64, start, n int64) error {
	defer s.tr.method(layerSorter, "SetPlan", time.Now())
	return s.w.SetPlan(ctx, stages, counts, start, n)
}

func (s *timedSorter) Gather(ctx context.Context) error {
	defer s.tr.method(layerSorter, "Gather", time.Now())
	return s.w.Gather(ctx)
}

func (s *timedSorter) Barrier(ctx context.Context) (int64, error) {
	defer s.tr.method(layerSorter, "Barrier", time.Now())
	return s.w.Barrier(ctx)
}

func (s *timedSorter) Summary(ctx context.Context) (distarray.Digest, error) {
	defer s.tr.method(layerSorter, "Summary", time.Now())
	return s.w.Summary(ctx)
}
