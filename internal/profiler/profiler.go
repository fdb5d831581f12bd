// Package profiler stands in for the paper's job-profiling step
// (Sec. 4.2): before DelayStage can compute a schedule it needs the model
// parameters — data processing rate R_k, shuffle input s_k and shuffle
// output d_k per stage — which the prototype obtains by running the job on
// a ~10% input sample on a single executor (following iSpot) and parsing
// the Spark event log.
//
// Here the "profiling run" is a simulation of the down-sampled job on a
// one-node, one-executor cluster; the extracted parameters are the true
// ones perturbed by a configurable relative measurement noise, so the rest
// of the pipeline consumes imperfect estimates exactly as the prototype
// does. The profiling wall-clock time is reported as the overhead metric
// of Sec. 5.4.
package profiler

import (
	"fmt"
	"math/rand"

	"delaystage/internal/cluster"
	"delaystage/internal/sim"
	"delaystage/internal/workload"
)

// Options configures the simulated profiling run.
type Options struct {
	// SampleFraction is the input sample size (default 0.1, the paper's 10%).
	SampleFraction float64
	// Noise is the maximum relative error applied to each extracted
	// parameter, uniform in [−Noise, +Noise] (default 0.05).
	Noise float64
	// Seed seeds the measurement noise.
	Seed int64
}

// targetParallelism is the executor count of the production cluster a
// job is sized for (30 m4.large × 2 executors). The profiling executor
// processes one partition's share of the sample — running the whole 10%
// sample through one executor would take longer than the production job
// itself, which is not what the paper's single-executor profiling does
// (its measured overheads are 45–143 s).
const targetParallelism = 60

func (o *Options) defaults() {
	if o.SampleFraction <= 0 || o.SampleFraction > 1 {
		o.SampleFraction = 0.1
	}
	if o.Noise < 0 {
		o.Noise = 0
	} else if o.Noise == 0 {
		o.Noise = 0.05
	}
}

// Profile is the outcome of profiling one job.
type Profile struct {
	// Estimated is the job with measured (noisy) stage profiles, suitable
	// for core.Compute.
	Estimated *workload.Job
	// ProfilingTime is the simulated wall-clock cost of the profiling run
	// (the Sec. 5.4 overhead metric).
	ProfilingTime float64
}

// ProfileJob simulates profiling of job j (whose Profiles play the role of
// ground truth) and returns noisy parameter estimates.
func ProfileJob(j *workload.Job, opt Options) (*Profile, error) {
	opt.defaults()
	if j == nil {
		return nil, fmt.Errorf("profiler: nil job")
	}
	if err := j.Validate(); err != nil {
		return nil, err
	}
	// The profiling cluster: one node, one executor, modest bandwidth —
	// a single m4.large running a lone executor.
	node := cluster.M4Large(0)
	node.Executors = 1
	profCluster := &cluster.Cluster{Nodes: []cluster.Node{node}}

	// Down-sample the job input: the lone profiling executor processes one
	// partition's share of the sample.
	frac := opt.SampleFraction / targetParallelism
	sampled := j.Clone()
	for id, p := range sampled.Profiles {
		p.ShuffleIn = int64(float64(p.ShuffleIn) * frac)
		p.ShuffleOut = int64(float64(p.ShuffleOut) * frac)
		if p.ShuffleIn < 1 {
			p.ShuffleIn = 1
		}
		sampled.Profiles[id] = p
	}
	res, err := sim.Run(sim.Options{Cluster: profCluster, TrackNode: -1}, []sim.JobRun{{Job: sampled}})
	if err != nil {
		return nil, fmt.Errorf("profiler: profiling run: %w", err)
	}

	// Extract parameters with measurement noise and scale back up.
	est := j.Perturbed(rand.New(rand.NewSource(opt.Seed)), opt.Noise)
	if err := est.Validate(); err != nil {
		return nil, fmt.Errorf("profiler: estimated job invalid: %w", err)
	}
	return &Profile{Estimated: est, ProfilingTime: res.JCT(0)}, nil
}
