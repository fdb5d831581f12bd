// Package shardsim is the repo's one worker pool: it runs independent
// units of work on a pool of goroutines and hands their results back in
// index order. Ordered is the generic runner; Run specialises it to
// simulation worlds — the runner that takes the trace replay to full
// Alibaba scale (2.7M jobs) with bounded memory — and the experiment
// grids (internal/experiments) run their cells on Ordered directly.
//
// A world is one self-contained simulation: its own cluster (a disjoint
// machine partition — per-job slices in the replay) and its own job
// subset, starting at t = 0. Worlds never share resources or a clock, so
// each one runs to completion through sim.Run on whichever worker takes
// it, and its result is bit-identical to running it alone, at any shard
// count.
//
// Determinism contract: work(i) (for Run, build(i)) must be a pure
// function of i, and reduce(i, v) is called exactly once per index,
// serially, in increasing i and on the calling goroutine, whatever order
// the workers finish in. A caller folds straight into its output inside
// reduce, so the result is byte-identical for any Shards setting.
package shardsim

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"delaystage/internal/sim"
)

// World is one self-contained simulation: options (cluster = the world's
// machine partition) plus its job runs.
type World struct {
	Opt  sim.Options
	Runs []sim.JobRun
}

// Config shapes a sharded run.
type Config struct {
	// Shards is the number of worker goroutines, each running one unit
	// (a world, for Run) at a time. Zero or negative means 1.
	Shards int
	// Ctx, when non-nil, cancels the run early: workers take no new unit
	// once it is done, reduce is not called again, and the run returns
	// ctx.Err() after every worker has exited.
	Ctx context.Context
}

// finished is one unit's outcome on its way from a worker to reduce.
type finished[T any] struct {
	idx int
	v   T
	err error
}

// Ordered runs work(i) for i in [0, n) on cfg.Shards workers, which take
// indices in increasing order, so at most Shards units are in flight at
// once. reduce(i, v) runs on the calling goroutine, serially and in index
// order: a unit that finishes early is parked until every earlier unit
// has been reduced.
//
// The first error in index order — from work or reduce — ends the run
// and is returned, so failures are deterministic too. Ordered never
// returns before every worker has exited, so cancellation leaks nothing.
func Ordered[T any](cfg Config, n int, work func(int) (T, error), reduce func(int, T) error) error {
	if n <= 0 {
		return nil
	}
	parent := cfg.Ctx
	if parent == nil {
		parent = context.Background()
	}
	ctx, stop := context.WithCancel(parent)
	workers := min(max(cfg.Shards, 1), n)
	// One slot per worker: a worker hands its result off and takes the
	// next unit without waiting for reduce to catch up.
	out := make(chan finished[T], workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				f := finished[T]{idx: i}
				f.v, f.err = work(i)
				select {
				case out <- f:
				case <-ctx.Done():
				}
			}
		}()
	}

	var err error
	parked := map[int]finished[T]{}
	for i := 0; i < n && err == nil; {
		if err = parent.Err(); err != nil {
			break
		}
		f, ok := parked[i]
		if !ok {
			select {
			case f = <-out:
			case <-parent.Done():
				continue
			}
			if f.idx != i {
				parked[f.idx] = f
				continue
			}
		}
		delete(parked, i)
		if err = f.err; err == nil {
			err = reduce(i, f.v)
		}
		i++
	}
	stop()
	wg.Wait()
	return err
}

// Run simulates n worlds on cfg.Shards workers through Ordered: build(i)
// materializes world i on the worker that takes it, so at most Shards
// worlds hold engine state at once, and reduce(i, res) sees the results
// serially and in index order on the calling goroutine.
func Run(cfg Config, n int, build func(int) (World, error), reduce func(int, *sim.Result) error) error {
	return Ordered(cfg, n, func(i int) (*sim.Result, error) { return runWorld(i, build) }, reduce)
}

// runWorld builds world i and runs it to completion.
func runWorld(i int, build func(int) (World, error)) (*sim.Result, error) {
	w, err := build(i)
	if err != nil {
		return nil, err
	}
	res, err := sim.Run(w.Opt, w.Runs)
	if err != nil {
		return nil, fmt.Errorf("world %d: %w", i, err)
	}
	return res, nil
}
