package experiments

import (
	"math/rand"

	"delaystage/internal/core"
	"delaystage/internal/metrics"
	"delaystage/internal/scheduler"
	"delaystage/internal/sim"
	"delaystage/internal/workload"
)

// OnlineRow is one strategy's outcome in the multi-job online experiment.
type OnlineRow struct {
	Strategy string
	MeanJCT  float64
	P90JCT   float64
}

// OnlineResult carries the multi-job extension experiment.
type OnlineResult struct {
	Rows []OnlineRow
}

// OnlineExtension evaluates the Sec. 6 multi-job direction the repo
// implements: jobs arriving over time on one shared cluster, scheduled by
// (a) submit-when-ready (Fuxi-style), (b) per-job DelayStage planned in
// isolation (blind to the other jobs), and (c) online multi-job
// DelayStage that plans each arrival against the jobs already running,
// minimizing the sum of completion times.
func OnlineExtension(cfg Config) (*OnlineResult, error) {
	cfg.defaults()
	c := cfg.cluster()
	rng := rand.New(rand.NewSource(cfg.Seed))
	nJobs := 8
	var jobs []*workload.Job
	var arrivals []float64
	at := 0.0
	for i := 0; i < nJobs; i++ {
		jobs = append(jobs, workload.RandomJob("online", c, 5+rng.Intn(6), rng))
		arrivals = append(arrivals, at)
		at += float64((400 + float64(rng.Float64()*500)) * cfg.Scale)
	}

	out := &OnlineResult{}
	record := func(name string, res *sim.Result) {
		jcts := make([]float64, len(jobs))
		for i := range jobs {
			jcts[i] = res.JCT(i)
		}
		out.Rows = append(out.Rows, OnlineRow{
			Strategy: name,
			MeanJCT:  metrics.Mean(jcts),
			P90JCT:   metrics.Percentile(jcts, 90),
		})
	}

	// (a) submit-when-ready.
	naiveRuns := make([]sim.JobRun, len(jobs))
	for i := range jobs {
		naiveRuns[i] = sim.JobRun{Job: jobs[i], Arrival: arrivals[i]}
	}
	naive, err := sim.Run(sim.Options{Cluster: c, TrackNode: -1, FairByJob: true}, naiveRuns)
	if err != nil {
		return nil, err
	}
	record("submit-when-ready", naive)

	// (b) per-job DelayStage, planned in isolation.
	isoRuns := make([]sim.JobRun, len(jobs))
	for i := range jobs {
		sched, err := core.Compute(core.Options{Cluster: c, MaxCandidates: 16}, jobs[i])
		if err != nil {
			return nil, err
		}
		isoRuns[i] = sim.JobRun{Job: jobs[i], Arrival: arrivals[i], Delays: sched.Delays}
	}
	iso, err := sim.Run(sim.Options{Cluster: c, TrackNode: -1, FairByJob: true}, isoRuns)
	if err != nil {
		return nil, err
	}
	record("per-job DelayStage", iso)

	// (c) online multi-job DelayStage.
	onlineRuns, err := scheduler.PlanOnline(scheduler.OnlineOptions{
		Cluster: c, FairByJob: true, MaxCandidates: 12,
	}, jobs, arrivals)
	if err != nil {
		return nil, err
	}
	online, err := sim.Run(sim.Options{Cluster: c, TrackNode: -1, FairByJob: true}, onlineRuns)
	if err != nil {
		return nil, err
	}
	record("online multi-job DelayStage", online)

	fprintf(cfg.W, "== Multi-job extension (Sec. 6 future work): %d overlapping jobs ==\n", nJobs)
	fprintf(cfg.W, "%-28s %12s %12s\n", "strategy", "mean JCT", "P90 JCT")
	for _, r := range out.Rows {
		fprintf(cfg.W, "%-28s %11.1fs %11.1fs\n", r.Strategy, r.MeanJCT, r.P90JCT)
	}
	base := out.Rows[0].MeanJCT
	for _, r := range out.Rows[1:] {
		fprintf(cfg.W, "%s vs naive: %+.1f%%\n", r.Strategy, 100*(r.MeanJCT-base)/base)
	}
	fprintf(cfg.W, "(not in the paper — its Sec. 6 commits to the multi-job extension)\n\n")
	return out, nil
}
