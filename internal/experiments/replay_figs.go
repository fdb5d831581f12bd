package experiments

import (
	"math/rand"
	"time"

	"delaystage/internal/cluster"
	"delaystage/internal/core"
	"delaystage/internal/metrics"
	"delaystage/internal/replay"
	"delaystage/internal/sim"
	"delaystage/internal/trace"
	"delaystage/internal/workload"
)

// Fig14Row is one strategy's replay outcome.
type Fig14Row struct {
	Strategy string
	JCTs     *metrics.CDF
	MeanJCT  float64
	// Cluster-wide utilization for Table 4.
	AvgCPUUtil, AvgNetUtil float64
}

// Fig14Result carries the Fig. 14 CDFs and the Table 4 utilizations.
type Fig14Result struct {
	Rows []Fig14Row
	// Eval sums the planners' work over the whole replay.
	Eval core.PlanStats
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
// for very large jobs to bound the replay's wall-clock time. The replay
// is internal/replay's pipeline, the one cmd/replay runs on trace files.
func Fig14(cfg Config) (*Fig14Result, error) {
	cfg.defaults()
	rp := newFig14Replay(cfg)
	out := &Fig14Result{}
	for _, v := range replay.Variants {
		if cfg.OnGrid != nil {
			cfg.OnGrid(rp.Jobs())
		}
		p := &replay.Progress{}
		err := rp.Run(v, p, nil, func(_ int, _ *sim.Result, sched *core.Schedule) error {
			if cfg.OnCell != nil {
				cfg.OnCell()
			}
			if sched != nil {
				out.Eval.Add(sched.PlanStats)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, Fig14Row{
			Strategy:   v.Name,
			JCTs:       metrics.NewCDF(p.JCTs),
			MeanJCT:    metrics.Mean(p.JCTs),
			AvgCPUUtil: p.CPUInt / p.TimeInt,
			AvgNetUtil: p.NetInt / p.TimeInt,
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

// newFig14Replay is the Fig. 14 replay: a generated trace, each job on a
// two-machine slice drawn from cfg.Seed, and up to 16 candidates per path
// (10 above 60 stages).
func newFig14Replay(cfg Config) *replay.Replay {
	tr := trace.Generate(trace.GenConfig{Jobs: cfg.TraceJobs, Seed: cfg.Seed})
	return replay.New(replay.Config{MaxCandidates: [2]int{16, 10}, Shards: cfg.Parallelism}, tr.Jobs, 2, cfg.Seed)
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
	// Eval sums the planning work of every Compute call of the figure
	// (the hit/fork/full breakdown covers the sim-evaluator runs).
	Eval core.PlanStats
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
		ms, err := core.Compute(core.Options{Cluster: c, Approximate: true, MaxCandidates: 12, DisableRefine: true}, job)
		if err != nil {
			return nil, err
		}
		modelMs := float64(time.Since(t0).Microseconds()) / 1000
		out.Eval.Add(ms.PlanStats)
		simMs := 0.0
		if n <= 40 {
			t0 = time.Now()
			ss, err := core.Compute(core.Options{Cluster: c, MaxCandidates: 12}, job)
			if err != nil {
				return nil, err
			}
			simMs = float64(time.Since(t0).Microseconds()) / 1000
			out.Eval.Add(ss.PlanStats)
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
