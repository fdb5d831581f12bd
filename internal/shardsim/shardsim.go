// Package shardsim runs many independent simulation worlds on a pool of
// worker goroutines and hands their results back in world-index order —
// the runner that takes the trace replay to full Alibaba scale (2.7M
// jobs) with bounded memory.
//
// A world is one self-contained simulation: its own cluster (a disjoint
// machine partition — per-job slices in the replay) and its own job
// subset, starting at t = 0. Worlds never share resources or a clock, so
// each one runs to completion through sim.Run on whichever worker takes
// it, and its result is bit-identical to running it alone, at any shard
// count.
//
// Determinism contract (same discipline as experiments.Config.Parallelism):
// build(i) must be a pure function of i, and reduce(i, res) is called
// exactly once per world, serially and in increasing i, whatever order
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
	// Shards is the number of worker goroutines, each running one world
	// at a time. Zero or negative means 1.
	Shards int
	// Ctx, when non-nil, cancels the run early: workers take no new world
	// once it is done, reduce is not called again, and Run returns
	// ctx.Err() after every worker has exited.
	Ctx context.Context
}

// finished is one world's outcome on its way from a worker to reduce.
type finished struct {
	idx int
	res *sim.Result
	err error
}

// Run simulates n worlds on cfg.Shards workers. Workers take world
// indices in increasing order; build(i) materializes world i on the
// worker that takes it, so at most Shards worlds hold engine state at
// once. reduce(i, res) runs on the calling goroutine, serially and in
// index order: a world that finishes early is parked until every earlier
// world has been reduced.
//
// The first error in index order — from build, the simulation or reduce —
// ends the run and is returned, so failures are deterministic too. Run
// never returns before every worker has exited, so cancellation leaks
// nothing.
func Run(cfg Config, n int, build func(int) (World, error), reduce func(int, *sim.Result) error) error {
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
	// next world without waiting for reduce to catch up.
	out := make(chan finished, workers)
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
				f := finished{idx: i}
				f.res, f.err = runWorld(i, build)
				select {
				case out <- f:
				case <-ctx.Done():
				}
			}
		}()
	}

	var err error
	parked := map[int]finished{}
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
			err = reduce(i, f.res)
		}
		i++
	}
	stop()
	wg.Wait()
	return err
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
