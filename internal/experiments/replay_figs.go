package experiments

import (
	"delaystage/internal/dag"
	"math/rand"
	"time"

	"delaystage/internal/cluster"
	"delaystage/internal/core"
	"delaystage/internal/metrics"
	"delaystage/internal/sim"
	"delaystage/internal/trace"
	"delaystage/internal/workload"
)

// replayStrategies is the Fig. 14 / Table 4 lineup.
type replayStrategy struct {
	name  string
	order core.Order
	fuxi  bool
}

var replayLineup = []replayStrategy{
	{name: "Fuxi", fuxi: true},
	{name: "random DelayStage", order: core.Random},
	{name: "default DelayStage", order: core.Descending},
	{name: "ascending DelayStage", order: core.Ascending},
}

// Fig14Row is one strategy's replay outcome.
type Fig14Row struct {
	Strategy string
	JCTs     *metrics.CDF
	MeanJCT  float64
	// Cluster-wide utilization for Table 4.
	AvgCPUUtil, AvgNetUtil float64
}

// EvalEfficiency aggregates the planner's what-if evaluation counters over
// one figure: how many candidate evaluations Alg. 1 made and how the
// evaluator answered them — from the memo cache, by forking a scan
// snapshot (sim evaluator only: just the suffix after the scanned stage's
// ready time was simulated), or by a full from-scratch simulation or
// layout.
type EvalEfficiency struct {
	Evaluations int
	CacheHits   int
	ForkedEvals int
	FullEvals   int
	// Two-tier scan counters: candidates screened by the analytic bound,
	// candidates discarded without evaluation, and (approximate mode only)
	// evaluations answered by the analytic model.
	Bounded int
	Pruned  int
	Approx  int
}

func (e *EvalEfficiency) add(s *core.Schedule) {
	e.Evaluations += s.Evaluations
	e.CacheHits += s.CacheHits
	e.ForkedEvals += s.ForkedEvals
	e.FullEvals += s.FullEvals
	e.Bounded += s.Prune.Bounded
	e.Pruned += s.Prune.Pruned
	e.Approx += s.Prune.Approx
}

// Fig14Result carries the Fig. 14 CDFs and the Table 4 utilizations.
type Fig14Result struct {
	Rows []Fig14Row
	// Eval sums the planners' evaluation counters over the whole replay.
	Eval EvalEfficiency
}

// Fig14 reproduces Fig. 14 and Table 4: replaying a synthetic Alibaba
// trace against the Sec. 5.3 cluster under Fuxi and the three DelayStage
// path-order variants. The paper's simulation assumption is "resources are
// evenly partitioned among multiple jobs that are concurrently running";
// each replayed job therefore runs on its own even slice of the cluster
// (machines with heterogeneous 100 Mbit/s–2 Gbit/s NICs and 80 MB/s
// disks, executor count = cores), and jobs are simulated independently.
// Alg. 1 runs per job with the what-if sim evaluator (the analytic model
// transfers poorly on wide trace DAGs); candidate counts shrink
// for very large jobs to bound the replay's wall-clock time.
func Fig14(cfg Config) (*Fig14Result, error) {
	cfg.defaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	tr := trace.Generate(trace.GenConfig{Jobs: cfg.TraceJobs, Seed: cfg.Seed})

	// Per-job slices with per-job bandwidth draws, so the Sec. 5.3 NIC
	// heterogeneity lands on jobs instead of averaging out.
	type preparedJob struct {
		slice *cluster.Cluster
		wl    *workload.Job
	}
	prepared := make([]preparedJob, 0, len(tr.Jobs))
	for i := range tr.Jobs {
		slice := sim.Coarsen(cluster.NewTraceCluster(2, 4, rng))
		wl, err := tr.Jobs[i].Workload(slice, trace.DefaultSplit, nil)
		if err != nil {
			return nil, err
		}
		prepared = append(prepared, preparedJob{slice: slice, wl: wl})
	}

	out := &Fig14Result{}
	for _, strat := range replayLineup {
		// Every (strategy, job) cell is a pure function of the prepared
		// slice/workload and a per-job planner seed, so the job loop fans
		// out; the utilization integrals are accumulated afterwards in job
		// order to keep the floating-point sums bit-identical.
		strat := strat
		type jobOutcome struct {
			jct, cpu, net float64
			eval          EvalEfficiency
		}
		outcomes := make([]jobOutcome, len(prepared))
		err := cfg.forEach(len(prepared), func(i int) error {
			pj := prepared[i]
			var delays map[dag.StageID]float64
			if !strat.fuxi {
				mc := 16
				if pj.wl.Graph.Len() > 60 {
					mc = 10
				}
				sched, err := core.Compute(core.Options{
					Cluster:       pj.slice,
					Order:         strat.order,
					Seed:          cfg.Seed + int64(i),
					MaxCandidates: mc,
				}, pj.wl)
				if err != nil {
					return err
				}
				delays = sched.Delays
				outcomes[i].eval.add(sched)
			}
			res, err := sim.Run(sim.Options{Cluster: pj.slice, TrackNode: -1},
				[]sim.JobRun{{Job: pj.wl, Delays: delays}})
			if err != nil {
				return err
			}
			outcomes[i].jct, outcomes[i].cpu, outcomes[i].net = res.JCT(0), res.AvgCPUUtil, res.AvgNetUtil
			return nil
		})
		if err != nil {
			return nil, err
		}
		jcts := make([]float64, 0, len(prepared))
		var cpuInt, netInt, timeInt float64
		for _, o := range outcomes {
			jcts = append(jcts, o.jct)
			cpuInt += o.cpu * o.jct
			netInt += o.net * o.jct
			timeInt += o.jct
			out.Eval.Evaluations += o.eval.Evaluations
			out.Eval.CacheHits += o.eval.CacheHits
			out.Eval.ForkedEvals += o.eval.ForkedEvals
			out.Eval.FullEvals += o.eval.FullEvals
		}
		out.Rows = append(out.Rows, Fig14Row{
			Strategy:   strat.name,
			JCTs:       metrics.NewCDF(jcts),
			MeanJCT:    metrics.Mean(jcts),
			AvgCPUUtil: cpuInt / timeInt,
			AvgNetUtil: netInt / timeInt,
		})
	}

	fprintf(cfg.W, "== Fig. 14: JCT CDF over the trace replay ==\n")
	fprintf(cfg.W, "%-22s %10s %10s %10s %10s\n", "strategy", "mean JCT", "P50", "P90", "P99")
	for _, r := range out.Rows {
		fprintf(cfg.W, "%-22s %9.0fs %9.0fs %9.0fs %9.0fs\n",
			r.Strategy, r.MeanJCT, r.JCTs.Quantile(0.5), r.JCTs.Quantile(0.9), r.JCTs.Quantile(0.99))
	}
	fuxi := out.Rows[0].MeanJCT
	for _, r := range out.Rows[1:] {
		fprintf(cfg.W, "%s vs Fuxi: −%.1f%%\n", r.Strategy, 100*(fuxi-r.MeanJCT)/fuxi)
	}
	fprintf(cfg.W, "(paper means: Fuxi 1373s, random 945s, default 871s, ascending 996s — −36.6/−31.2/−27.5%%)\n\n")

	fprintf(cfg.W, "== Table 4: average utilization of the replayed cluster ==\n")
	fprintf(cfg.W, "%-22s %10s %10s\n", "strategy", "CPU %", "network %")
	for _, r := range out.Rows {
		fprintf(cfg.W, "%-22s %9.1f%% %9.1f%%\n", r.Strategy, r.AvgCPUUtil*100, r.AvgNetUtil*100)
	}
	fprintf(cfg.W, "(paper: Fuxi 36.2/42.7; random 43.4/49.1; ascending 42.2/48.3; default 45.4/53.3)\n\n")
	return out, nil
}

// Table4 is an alias view over Fig14 (the paper derives both from the same
// replay).
func Table4(cfg Config) (*Fig14Result, error) { return Fig14(cfg) }

// Fig15Point is one measurement of Alg. 1's computation time.
type Fig15Point struct {
	Stages  int
	ModelMs float64 // analytic model, Approximate (trace-scale configuration)
	SimMs   float64 // what-if sim evaluator (prototype configuration)
}

// Fig15Result carries the Fig. 15 scaling curve.
type Fig15Result struct {
	Points []Fig15Point
	// Eval sums the evaluation counters over every Compute call of the
	// figure (the hit/fork/full breakdown covers the sim-evaluator runs).
	Eval EvalEfficiency
}

// Fig15 reproduces Fig. 15: DelayStage's strategy computation time versus
// the number of stages in a job (paper: roughly linear, ≤1.2 s at 186
// stages, <0.2 s for the 90% of jobs under 15 stages).
func Fig15(cfg Config) (*Fig15Result, error) {
	cfg.defaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	c := sim.Coarsen(cluster.NewTraceCluster(64, 4, rng))
	out := &Fig15Result{}
	for _, n := range []int{10, 20, 40, 80, 120, 160, 186} {
		job := workload.RandomJob("fig15", c, n, rng)
		t0 := time.Now()
		ms, err := core.Compute(core.Options{Cluster: c, Approximate: true, MaxCandidates: 12, RefinePasses: -1, Parallelism: cfg.Parallelism}, job)
		if err != nil {
			return nil, err
		}
		modelMs := float64(time.Since(t0).Microseconds()) / 1000
		out.Eval.add(ms)
		simMs := 0.0
		if n <= 40 {
			t0 = time.Now()
			ss, err := core.Compute(core.Options{Cluster: c, MaxCandidates: 12, Parallelism: cfg.Parallelism}, job)
			if err != nil {
				return nil, err
			}
			simMs = float64(time.Since(t0).Microseconds()) / 1000
			out.Eval.add(ss)
		}
		out.Points = append(out.Points, Fig15Point{Stages: n, ModelMs: modelMs, SimMs: simMs})
	}
	fprintf(cfg.W, "== Fig. 15: Alg. 1 computation time vs #stages ==\n")
	fprintf(cfg.W, "%8s %18s %18s\n", "#stages", "model eval (ms)", "sim eval (ms)")
	for _, p := range out.Points {
		if p.SimMs > 0 {
			fprintf(cfg.W, "%8d %18.1f %18.1f\n", p.Stages, p.ModelMs, p.SimMs)
		} else {
			fprintf(cfg.W, "%8d %18.1f %18s\n", p.Stages, p.ModelMs, "—")
		}
	}
	fprintf(cfg.W, "(paper: ≤1.2 s at 186 stages, <0.2 s below 15 stages, roughly linear)\n")
	if out.Eval.Bounded > 0 {
		fprintf(cfg.W, "two-tier scan: %d candidates bounded, %d pruned before evaluation (%.0f%%)\n",
			out.Eval.Bounded, out.Eval.Pruned, 100*float64(out.Eval.Pruned)/float64(out.Eval.Bounded))
	}
	fprintf(cfg.W, "\n")
	return out, nil
}
