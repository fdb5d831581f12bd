// Package faults is the deterministic fault-injection layer of the
// reproduction. The simulator and Alg. 1 assume a perfect world — every
// stage runs exactly as profiled and a delay schedule computed up front
// stays valid to the end — but the paper's pitch is deciding *when* to
// submit work on a real cluster, where tasks fail, nodes crash and
// profiled R_k/s_k/d_k are wrong (cf. Graphene's uncertainty budgeting and
// Beránek et al.'s finding that scheduler rankings flip once simulations
// include failures; see PAPERS.md).
//
// An Injector is built from a FaultPlan and hands the simulator
// reproducible fault events. All per-task draws are *hash-based* — a
// deterministic function of (seed, job, stage, node, attempt) — rather
// than consumed from a stream, so the same plan yields the same faults
// regardless of the event order a particular schedule produces. That is
// what makes spark / delaystage / guarded-delaystage comparisons under
// faults apples-to-apples: every strategy sees the identical failure set.
package faults

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"delaystage/internal/workload"
)

// NodeCrash schedules the loss of one node's executors and local state
// (in-flight tasks plus the shuffle outputs stored on its disks) at an
// absolute simulation time. The node itself returns immediately — Spark
// on EC2 replaces the executor within seconds — but everything it held
// must be re-run or recomputed.
type NodeCrash struct {
	Node int
	At   float64
}

// RackCrash schedules a correlated outage: every node of one rack is
// lost at the same instant (a top-of-rack switch or PDU failure). Racks
// partition the cluster into consecutive index ranges of RackSize nodes:
// rack r covers nodes [r·RackSize, (r+1)·RackSize).
type RackCrash struct {
	Rack int
	At   float64
}

// FaultPlan describes the perturbations of one run. The zero value is the
// perfect world: a simulator driven by a zero plan behaves bit-identically
// to one with no injector at all (pay-for-what-you-use).
type FaultPlan struct {
	// Seed drives every hash-based draw.
	Seed int64
	// TaskFailureProb is the probability that one compute-task attempt
	// (one stage-partition on one node) dies partway through its work.
	TaskFailureProb float64
	// StragglerFrac is the fraction of stage-partitions that straggle;
	// StragglerFactor (≥1) divides a straggler's processing rate.
	StragglerFrac   float64
	StragglerFactor float64
	// MispredictNoise is the maximum relative error PerturbJob applies to
	// each profiled parameter (R_k, s_k, d_k), uniform in [−n, +n].
	MispredictNoise float64
	// Crashes lists scheduled node losses.
	Crashes []NodeCrash

	// Machine-level failure domains.
	//
	// SlowNodeFrac is the fraction of machines that are persistently
	// degraded (bad disk, thermal throttling, noisy neighbour): every
	// phase on a slow node — network read, compute, disk write — runs
	// SlowNodeFactor (≥1) times slower, across all jobs and stages.
	// Unlike StragglerFrac (drawn per stage-partition), this is drawn
	// once per machine.
	SlowNodeFrac   float64
	SlowNodeFactor float64
	// NodeMTTF, when positive, draws random node crashes: each node's
	// inter-crash gaps are exponential with mean NodeMTTF seconds,
	// hash-derived from the seed (the same plan always crashes the same
	// nodes at the same times). Draws cover [0, MTTFHorizon], which must
	// be positive when NodeMTTF is set — the injector cannot know the
	// run's length.
	NodeMTTF    float64
	MTTFHorizon float64
	// RackCrashes lists correlated rack outages; RackSize (required > 0
	// when any are present) is the number of consecutive node indices
	// per rack.
	RackSize    int
	RackCrashes []RackCrash
}

// Validate rejects plans the simulator cannot honour.
func (p FaultPlan) Validate() error {
	if p.TaskFailureProb < 0 || p.TaskFailureProb > 1 || math.IsNaN(p.TaskFailureProb) {
		return fmt.Errorf("faults: task failure prob %v outside [0,1]", p.TaskFailureProb)
	}
	if p.StragglerFrac < 0 || p.StragglerFrac > 1 || math.IsNaN(p.StragglerFrac) {
		return fmt.Errorf("faults: straggler fraction %v outside [0,1]", p.StragglerFrac)
	}
	if p.StragglerFrac > 0 && (p.StragglerFactor < 1 || math.IsNaN(p.StragglerFactor)) {
		return fmt.Errorf("faults: straggler factor %v must be ≥1", p.StragglerFactor)
	}
	if p.MispredictNoise < 0 || p.MispredictNoise >= 1 {
		return fmt.Errorf("faults: misprediction noise %v outside [0,1)", p.MispredictNoise)
	}
	for _, c := range p.Crashes {
		if c.Node < 0 {
			return fmt.Errorf("faults: crash of negative node %d", c.Node)
		}
		if c.At < 0 || math.IsNaN(c.At) || math.IsInf(c.At, 0) {
			return fmt.Errorf("faults: crash at invalid time %v", c.At)
		}
	}
	if p.SlowNodeFrac < 0 || p.SlowNodeFrac > 1 || math.IsNaN(p.SlowNodeFrac) {
		return fmt.Errorf("faults: slow-node fraction %v outside [0,1]", p.SlowNodeFrac)
	}
	if p.SlowNodeFrac > 0 && (p.SlowNodeFactor < 1 || math.IsNaN(p.SlowNodeFactor)) {
		return fmt.Errorf("faults: slow-node factor %v must be ≥1", p.SlowNodeFactor)
	}
	if p.NodeMTTF < 0 || math.IsNaN(p.NodeMTTF) || math.IsInf(p.NodeMTTF, 0) {
		return fmt.Errorf("faults: node MTTF %v must be ≥0", p.NodeMTTF)
	}
	if p.NodeMTTF > 0 && (p.MTTFHorizon <= 0 || math.IsNaN(p.MTTFHorizon) || math.IsInf(p.MTTFHorizon, 0)) {
		return fmt.Errorf("faults: node MTTF set but horizon %v is not positive", p.MTTFHorizon)
	}
	if len(p.RackCrashes) > 0 && p.RackSize <= 0 {
		return fmt.Errorf("faults: rack crashes scheduled but rack size %d is not positive", p.RackSize)
	}
	for _, rc := range p.RackCrashes {
		if rc.Rack < 0 {
			return fmt.Errorf("faults: crash of negative rack %d", rc.Rack)
		}
		if rc.At < 0 || math.IsNaN(rc.At) || math.IsInf(rc.At, 0) {
			return fmt.Errorf("faults: rack crash at invalid time %v", rc.At)
		}
	}
	return nil
}

// Zero reports whether the plan injects nothing.
func (p FaultPlan) Zero() bool {
	return p.TaskFailureProb == 0 && p.StragglerFrac == 0 &&
		p.MispredictNoise == 0 && len(p.Crashes) == 0 &&
		p.SlowNodeFrac == 0 && p.NodeMTTF == 0 && len(p.RackCrashes) == 0
}

// Injector emits reproducible fault events for one run.
type Injector struct {
	plan FaultPlan
}

// NewInjector validates the plan and builds an injector.
func NewInjector(plan FaultPlan) (*Injector, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	return &Injector{plan: plan}, nil
}

// Crashes returns the explicitly scheduled node crashes in time order.
// It excludes the machine-level domains (rack crashes, MTTF draws),
// whose expansion needs the cluster size — see CrashEvents.
func (in *Injector) Crashes() []NodeCrash {
	out := append([]NodeCrash(nil), in.plan.Crashes...)
	sort.Slice(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// mttfDrawCap bounds the crash draws per node: a pathologically small
// MTTF against a long horizon must not expand into millions of timers.
const mttfDrawCap = 64

// CrashEvents expands every failure domain of the plan into concrete
// per-node crash events for a cluster of the given size, sorted by
// (time, node): the explicit Crashes list, each RackCrash unrolled over
// its RackSize consecutive nodes (clamped to the cluster), and — when
// NodeMTTF is set — per-node crash times with exponential inter-crash
// gaps of mean NodeMTTF over [0, MTTFHorizon]. All MTTF draws are
// hash-based on (seed, draw index, node), so the failure set is a pure
// function of the plan, independent of schedule and cluster activity.
func (in *Injector) CrashEvents(nodes int) []NodeCrash {
	p := in.plan
	out := append([]NodeCrash(nil), p.Crashes...)
	for _, rc := range p.RackCrashes {
		lo := rc.Rack * p.RackSize
		hi := lo + p.RackSize
		if hi > nodes {
			hi = nodes
		}
		for w := lo; w < hi; w++ {
			out = append(out, NodeCrash{Node: w, At: rc.At})
		}
	}
	if p.NodeMTTF > 0 {
		for w := 0; w < nodes; w++ {
			t := 0.0
			for k := 0; k < mttfDrawCap; k++ {
				u := in.u01(kindNodeCrash, 0, k, w, 0)
				t += float64(-p.NodeMTTF * math.Log1p(-u))
				if t > p.MTTFHorizon {
					break
				}
				out = append(out, NodeCrash{Node: w, At: t})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		return out[i].Node < out[j].Node
	})
	return out
}

// NodeSlowdown returns the persistent rate degradation of one machine
// (1 = healthy): SlowNodeFactor with probability SlowNodeFrac, drawn
// once per node index. Every phase on a slow node — read, compute,
// write — runs this factor slower.
func (in *Injector) NodeSlowdown(node int) float64 {
	if in == nil || in.plan.SlowNodeFrac == 0 {
		return 1
	}
	if in.u01(kindSlowNode, 0, 0, node, 0) >= in.plan.SlowNodeFrac {
		return 1
	}
	return in.plan.SlowNodeFactor
}

// Draw kinds — mixed into the hash so the failure, fail-point and
// straggler draws of the same task are independent.
const (
	kindTaskFail = iota + 1
	kindFailPoint
	kindStraggle
	kindSlowNode
	kindNodeCrash
)

// splitmix64 is the SplitMix64 finalizer: a high-quality 64-bit mixer.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// u01 maps (seed, kind, job, stage, node, attempt) to a uniform in [0,1).
func (in *Injector) u01(kind, job, stage, node, attempt int) float64 {
	h := splitmix64(uint64(in.plan.Seed))
	for _, v := range [...]int{kind, job, stage, node, attempt} {
		h = splitmix64(h ^ uint64(int64(v)))
	}
	return float64(h>>11) / (1 << 53)
}

// TaskFailure decides whether the given compute-task attempt fails and, if
// so, after what fraction of its work (in (0, 0.95]): tasks rarely die at
// the very start, and never exactly at completion.
func (in *Injector) TaskFailure(job, stage, node, attempt int) (failFrac float64, fails bool) {
	if in == nil || in.plan.TaskFailureProb == 0 {
		return 0, false
	}
	if in.u01(kindTaskFail, job, stage, node, attempt) >= in.plan.TaskFailureProb {
		return 0, false
	}
	return 0.05 + float64(0.90*in.u01(kindFailPoint, job, stage, node, attempt)), true
}

// Straggler returns the processing-rate slowdown of a stage-partition
// (1 = healthy). The draw is per-partition, not per-attempt: a slow node
// stays slow across retries, as machine-level stragglers do.
func (in *Injector) Straggler(job, stage, node int) float64 {
	if in == nil || in.plan.StragglerFrac == 0 {
		return 1
	}
	if in.u01(kindStraggle, job, stage, node, 0) >= in.plan.StragglerFrac {
		return 1
	}
	return in.plan.StragglerFactor
}

// PerturbJob returns a clone of j whose profiled parameters carry the
// plan's misprediction noise: R_k, s_k and d_k each off by a uniform
// relative error in [−MispredictNoise, +MispredictNoise]. The rng is
// passed in (rather than owned) so one seeded *rand.Rand can drive
// profiler noise, trace generation and fault injection in a single
// experiment — reproducible from one -seed flag.
func (in *Injector) PerturbJob(rng *rand.Rand, j *workload.Job) *workload.Job {
	return j.Perturbed(rng, in.plan.MispredictNoise)
}
