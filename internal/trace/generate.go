package trace

import (
	"fmt"
	"math"
	"math/rand"

	"delaystage/internal/cluster"
	"delaystage/internal/dag"
	"delaystage/internal/workload"
)

// GenConfig parameterizes the synthetic-trace generator. Defaults (zero
// values) reproduce the marginal statistics the paper reports for the
// Alibaba v2018 trace.
type GenConfig struct {
	Jobs int     // number of jobs (default 1000)
	Span float64 // arrival window in seconds (default 8 days, the trace span)
	Seed int64   // seeds generation
	// MaxStages caps the largest job (default 186, the paper's maximum).
	MaxStages int
}

// chainFrac is the fraction of jobs that are pure sequential chains —
// jobs without parallel stages — so 68.6% have them.
const chainFrac = 0.314

func (c *GenConfig) defaults() {
	if c.Jobs <= 0 {
		c.Jobs = 1000
	}
	if c.Span <= 0 {
		c.Span = 8 * 24 * 3600
	}
	if c.MaxStages <= 0 {
		c.MaxStages = 186
	}
}

// Generate produces a synthetic trace whose marginals match the paper's
// observations: ≈68.6% of jobs contain parallel stages; parallel stages
// are ≈79% of all stages; ~90% of jobs have fewer than 15 parallel
// stages with a tail up to MaxStages; stage runtimes are log-skewed in
// [10 s, ~3,000 s]; stage start/end times follow a list schedule of the
// job's DAG (stages start when their last parent ends).
func Generate(cfg GenConfig) *Trace {
	cfg.defaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	tr := &Trace{Jobs: make([]Job, 0, cfg.Jobs)}
	for i := 0; i < cfg.Jobs; i++ {
		arrival := rng.Float64() * cfg.Span
		var job Job
		if rng.Float64() < chainFrac {
			job = genChain(rng, arrival)
		} else {
			job = genDAG(rng, arrival, cfg.MaxStages)
		}
		job.Name = fmt.Sprintf("j_%d", i)
		tr.Jobs = append(tr.Jobs, job)
	}
	tr.SortByArrival()
	return tr
}

// stageDuration draws a log-skewed runtime in [10, ~2560] seconds,
// matching the 10–3,000 s span observed in the trace.
func stageDuration(rng *rand.Rand) float64 {
	return 10 * math.Pow(2, rng.Float64()*8)
}

// genChain builds a job with no parallel stages: a sequential chain of
// 1–4 stages.
func genChain(rng *rand.Rand, arrival float64) Job {
	n := 1 + rng.Intn(4)
	j := Job{Arrival: arrival}
	t := arrival
	for i := 1; i <= n; i++ {
		var parents []int
		if i > 1 {
			parents = []int{i - 1}
		}
		d := stageDuration(rng)
		j.Stages = append(j.Stages, Stage{ID: i, Parents: parents, Start: t, End: t + d})
		t += d
	}
	return j
}

// stageCount draws the stage count of a parallel job: mostly small (the
// paper: ~90% of jobs have <15 parallel stages) with a tail to max.
func stageCount(rng *rand.Rand, max int) int {
	if rng.Float64() < 0.88 {
		// Geometric-ish bulk: 4 .. ~15.
		n := 4
		for n < 15 && rng.Float64() < 0.62 {
			n++
		}
		return n
	}
	// Tail: log-uniform 15 .. max.
	lo, hi := math.Log(15), math.Log(float64(max))
	return int(math.Exp(lo + float64(rng.Float64()*(hi-lo))))
}

// genDAG builds a job with parallel stages. Real trace DAGs are wide
// blocks of concurrent stages punctuated by synchronization barriers and
// framed by short sequential prefix/suffix chains; that structure is what
// keeps the parallel-stage share near 79% and the parallel-makespan
// fraction near 82% rather than ~100%.
func genDAG(rng *rand.Rand, arrival float64, maxStages int) Job {
	n := stageCount(rng, maxStages)
	j := Job{Arrival: arrival}
	end := make([]float64, n+1)

	addStage := func(id int, parents []int) {
		start := arrival
		for _, p := range parents {
			if end[p] > start {
				start = end[p]
			}
		}
		d := stageDuration(rng)
		end[id] = start + d
		j.Stages = append(j.Stages, Stage{ID: id, Parents: parents, Start: start, End: start + d})
	}

	// Sequential prefix chain (usually absent, occasionally 1–2 stages —
	// weights tuned so the parallel-makespan fraction averages ≈0.82 as
	// in Fig. 3).
	prefix := 0
	switch u := rng.Float64(); {
	case u < 0.25:
		prefix = 1
	case u < 0.35:
		prefix = 2
	}
	if prefix >= n-1 {
		prefix = 0
	}
	i := 1
	for ; i <= prefix; i++ {
		var parents []int
		if i > 1 {
			parents = []int{i - 1}
		}
		addStage(i, parents)
	}
	// Suffix chain (often a single collector stage).
	suffix := 0
	switch u := rng.Float64(); {
	case u < 0.45:
		suffix = 1
	case u < 0.55:
		suffix = 2
	}
	if n-prefix-suffix < 2 {
		suffix = 0
	}
	bodyEnd := n - suffix

	// Body: wide blocks separated by occasional barriers. The first two
	// body stages always share the same parent set, guaranteeing the job
	// really has parallel stages (it was drawn as a parallel job).
	bodyFirst := i
	segStart := i // first stage id of the current segment
	for ; i <= bodyEnd; i++ {
		if i == bodyFirst+1 && i <= bodyEnd {
			var parents []int
			if prefix > 0 {
				parents = []int{prefix}
			}
			addStage(i, parents)
			continue
		}
		isBarrier := i > segStart && rng.Float64() < 0.08
		var parents []int
		if isBarrier {
			// Join every sink of the current segment.
			sinks := map[int]bool{}
			for s := segStart; s < i; s++ {
				sinks[s] = true
			}
			for _, st := range j.Stages {
				if st.ID >= segStart && st.ID < i {
					for _, p := range st.Parents {
						delete(sinks, p)
					}
				}
			}
			for s := segStart; s < i; s++ {
				if sinks[s] {
					parents = append(parents, s)
				}
			}
			segStart = i + 1
		} else {
			// Wide block member: 0–2 parents from within the segment, or
			// the previous barrier/prefix if the segment just began.
			if segStart > 1 && i == segStart {
				parents = []int{segStart - 1}
			} else if i > segStart {
				nPar := 0
				for rng.Float64() < 0.30 && nPar < 2 && nPar < i-segStart {
					nPar++
				}
				seen := map[int]bool{}
				for len(parents) < nPar {
					p := segStart + rng.Intn(i-segStart)
					if !seen[p] {
						seen[p] = true
						parents = append(parents, p)
					}
				}
				if segStart > 1 && len(parents) == 0 && rng.Float64() < 0.5 {
					parents = []int{segStart - 1}
				}
			} else if segStart > 1 {
				parents = []int{segStart - 1}
			}
		}
		addStage(i, parents)
	}

	// Suffix: first suffix stage joins every remaining sink, the rest chain.
	if suffix > 0 {
		sinks := map[int]bool{}
		for s := 1; s <= bodyEnd; s++ {
			sinks[s] = true
		}
		for _, st := range j.Stages {
			for _, p := range st.Parents {
				delete(sinks, p)
			}
		}
		var parents []int
		for s := 1; s <= bodyEnd; s++ {
			if sinks[s] {
				parents = append(parents, s)
			}
		}
		addStage(i, parents)
		i++
		for ; i <= n; i++ {
			addStage(i, []int{i - 1})
		}
	}
	return j
}

// PhaseSplit controls how a traced stage's runtime is apportioned to the
// three phases when converting to a simulator workload.
type PhaseSplit struct {
	Read, Write float64 // fractions; compute gets the rest
}

// DefaultSplit mirrors the read/compute/write balance of the paper's
// prototype workloads.
var DefaultSplit = PhaseSplit{Read: 0.30, Write: 0.08}

// Workload converts a traced job into a simulator workload on the given
// reference cluster: each stage's observed runtime becomes its
// uncontended phase times under the split. skewFn, if non-nil, supplies
// per-stage task skew (default 0.3).
func (j *Job) Workload(ref *cluster.Cluster, split PhaseSplit, skewFn func(stage int) float64) (*workload.Job, error) {
	if split.Read < 0 || split.Write < 0 || split.Read+split.Write >= 1 {
		return nil, fmt.Errorf("trace: bad phase split %+v", split)
	}
	g, err := j.Graph()
	if err != nil {
		return nil, err
	}
	profiles := make(map[dag.StageID]workload.StageProfile, len(j.Stages))
	for _, s := range j.Stages {
		d := s.Duration()
		if d <= 0 {
			d = 1
		}
		skew := 0.3
		if skewFn != nil {
			skew = skewFn(s.ID)
		}
		profiles[dag.StageID(s.ID)] = workload.FromPhases(ref, workload.PhaseSpec{
			ReadSec:    d * split.Read,
			ComputeSec: d * (1 - split.Read - split.Write),
			WriteSec:   d * split.Write,
			Skew:       skew,
		})
	}
	wj := &workload.Job{Name: j.Name, Graph: g, Profiles: profiles}
	if err := wj.Validate(); err != nil {
		return nil, err
	}
	return wj, nil
}
