package geo

import (
	"fmt"
	"time"

	"delaystage/internal/dag"
)

// DelayOptions configures the geo-distributed DelayStage search.
type DelayOptions struct {
	Topology *Topology
	// SlotSeconds / MaxCandidates mirror core.Options (0 = 1 s / 32).
	SlotSeconds   float64
	MaxCandidates int
	// RefinePasses re-scans stages after the first sweep (0 = 2; -1 = off).
	RefinePasses int
}

// DelaySchedule is the geo search's output.
type DelaySchedule struct {
	Delays        map[dag.StageID]float64
	Makespan      float64 // predicted JCT under X
	StockMakespan float64 // predicted JCT with no delays
	K             []dag.StageID
	ComputeTime   time.Duration
	Evaluations   int
}

// ComputeDelays runs the DelayStage greedy (Alg. 1 semantics: longest
// execution path first, slotted candidate scan, greedy makespan
// minimization) against the placed simulation (Run), producing
// submission delays that interleave WAN transfers with remote
// computation.
func ComputeDelays(opt DelayOptions, job *Job) (*DelaySchedule, error) {
	start := time.Now()
	if opt.Topology == nil {
		return nil, fmt.Errorf("geo: nil topology")
	}
	if err := job.Validate(opt.Topology); err != nil {
		return nil, err
	}
	if opt.SlotSeconds <= 0 {
		opt.SlotSeconds = 1
	}
	if opt.MaxCandidates <= 0 {
		opt.MaxCandidates = 32
	}
	if opt.RefinePasses == 0 {
		opt.RefinePasses = 2
	} else if opt.RefinePasses < 0 {
		opt.RefinePasses = 0
	}

	wl := job.Workload
	reach, err := dag.NewReachability(wl.Graph)
	if err != nil {
		return nil, err
	}
	sched := &DelaySchedule{Delays: map[dag.StageID]float64{}}
	sched.K = dag.ParallelStages(wl.Graph, reach)

	eval := func(delays map[dag.StageID]float64) (float64, error) {
		res, err := Run(opt.Topology, job, delays)
		if err != nil {
			return 0, err
		}
		sched.Evaluations++
		return res.JCT(0), nil
	}

	stock, err := eval(nil)
	if err != nil {
		return nil, err
	}
	sched.StockMakespan = stock
	if len(sched.K) == 0 {
		sched.Makespan = stock
		sched.ComputeTime = time.Since(start)
		return sched, nil
	}

	// Solo times for path weighting: each stage alone in the topology.
	solo := make(map[dag.StageID]float64, wl.Graph.Len())
	for _, id := range wl.Graph.StagesView() {
		p := wl.Profiles[id]
		dc := job.Placement[id]
		read := 0.0
		in := float64(p.ShuffleIn)
		parents := wl.Graph.Stage(id).Parents
		weights := wl.AppendInputWeights(nil, id)
		for i, pid := range parents {
			src := job.Placement[pid]
			bw := opt.Topology.DCs[dc].NetBW
			if src != dc {
				bw = opt.Topology.WAN[src][dc]
			}
			if t := weights[i] * in / bw; t > read {
				read = t // Eq. (1): slowest input link gates the read
			}
		}
		if len(parents) == 0 && in > 0 {
			read = in / opt.Topology.DCs[dc].NetBW
		}
		compute := in / (float64(opt.Topology.DCs[dc].Executors) * p.ProcRate)
		write := float64(p.ShuffleOut) / opt.Topology.DCs[dc].DiskBW
		solo[id] = read + compute + write
	}
	weight := func(id dag.StageID) float64 { return solo[id] }
	paths := dag.ExecutionPaths(wl.Graph, reach, weight)
	dag.SortPathsDescending(paths, weight)

	best := stock
	scan := func(kid dag.StageID) error {
		upper := stock - solo[kid]
		if upper < 0 {
			upper = 0
		}
		n := int(upper/opt.SlotSeconds) + 1
		if n > opt.MaxCandidates {
			n = opt.MaxCandidates
		}
		step := upper
		if n > 1 {
			step = upper / float64(n-1)
		}
		incumbent := sched.Delays[kid]
		bestDelay := incumbent
		try := func(x float64) error {
			if x < 0 {
				return nil
			}
			sched.Delays[kid] = x
			mk, err := eval(sched.Delays)
			if err != nil {
				return err
			}
			if mk < best-1e-9 {
				best = mk
				bestDelay = x
			}
			return nil
		}
		for i := 0; i < n; i++ {
			if err := try(float64(i) * step); err != nil {
				return err
			}
		}
		// Local refinement around the coarse winner: the WAN-bound
		// landscape is rugged and the coarse grid alone is sensitive to
		// its resolution.
		if step > opt.SlotSeconds {
			for _, dx := range []float64{-step / 2, -step / 4, step / 4, step / 2} {
				if err := try(bestDelay + dx); err != nil {
					return err
				}
			}
		}
		if bestDelay == 0 {
			delete(sched.Delays, kid)
		} else {
			sched.Delays[kid] = bestDelay
		}
		return nil
	}

	for pass := 0; pass <= opt.RefinePasses; pass++ {
		seen := map[dag.StageID]bool{}
		for _, p := range paths {
			for _, kid := range p.Stages {
				if seen[kid] {
					continue
				}
				seen[kid] = true
				if err := scan(kid); err != nil {
					return nil, err
				}
			}
		}
	}
	if best > stock {
		sched.Delays = map[dag.StageID]float64{}
		best = stock
	}
	sched.Makespan = best
	sched.ComputeTime = time.Since(start)
	return sched, nil
}
