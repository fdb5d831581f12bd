// Command delaystage runs the DelayStage delay-time calculator (Alg. 1)
// and prints the computed submission delays X, the predicted makespans,
// and the simulated JCT comparison. The job comes from a built-in paper
// workload, a JSON job spec (see internal/jobspec), or a Spark event log.
//
// Usage:
//
//	delaystage [-workload LDA] [-nodes 30] [-scale 1.0] [-order descending|ascending|random] [-profile] [-no-eval-cache]
//	delaystage -spec job.json [-dot schedule.dot]
//	delaystage -eventlog app.log
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"

	"delaystage/internal/cluster"
	"delaystage/internal/core"
	"delaystage/internal/dag"
	"delaystage/internal/eventlog"
	"delaystage/internal/jobspec"
	"delaystage/internal/profiler"
	"delaystage/internal/sim"
	"delaystage/internal/workload"
)

func main() {
	name := flag.String("workload", "LDA", "ALS | ConnectedComponents | CosineSimilarity | LDA | TriangleCount")
	nodes := flag.Int("nodes", 30, "cluster size (m4.large-class nodes)")
	scale := flag.Float64("scale", 1.0, "workload duration scale")
	orderName := flag.String("order", "descending", "execution-path order: descending | ascending | random")
	seed := flag.Int64("seed", 1, "seed for the random order / profiling noise")
	profile := flag.Bool("profile", false, "plan on profiled (noisy) parameters, as the prototype does")
	noCache := flag.Bool("no-eval-cache", false, "disable the what-if memo cache and snapshot forking (every candidate simulated from scratch; the schedule is identical either way)")
	approx := flag.Bool("approx-plan", false, "plan from the analytic Eq. 1–3 model (no simulation per candidate; makespans are predictions)")
	noPrune := flag.Bool("no-bound-prune", false, "disable the analytic pruning tier of the candidate scan (single-tier reference; the schedule is identical either way)")
	specPath := flag.String("spec", "", "JSON job spec (overrides -workload)")
	logPath := flag.String("eventlog", "", "Spark event log to derive the job from (overrides -workload)")
	dotPath := flag.String("dot", "", "write the schedule-annotated DAG as Graphviz DOT to this file")
	flag.Parse()

	c := cluster.NewM4LargeCluster(*nodes)
	var job *workload.Job
	switch {
	case *specPath != "":
		spec, err := jobspec.Load(*specPath)
		if err != nil {
			log.Fatal(err)
		}
		j, err := spec.Job(c)
		if err != nil {
			log.Fatal(err)
		}
		job = j
	case *logPath != "":
		f, err := os.Open(*logPath)
		if err != nil {
			log.Fatal(err)
		}
		l, err := eventlog.Parse(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		j, err := l.Job(c)
		if err != nil {
			log.Fatal(err)
		}
		job = j
	case *name == "ALS":
		job = workload.ALS(c, *scale)
	default:
		job = workload.PaperWorkloads(c, *scale)[*name]
	}
	if job == nil {
		log.Fatalf("unknown workload %q", *name)
	}

	var order core.Order
	switch *orderName {
	case "descending":
		order = core.Descending
	case "ascending":
		order = core.Ascending
	case "random":
		order = core.Random
	default:
		log.Fatalf("unknown order %q", *orderName)
	}

	planJob := job
	if *profile {
		prof, err := profiler.ProfileJob(job, profiler.Options{Seed: *seed})
		if err != nil {
			log.Fatal(err)
		}
		planJob = prof.Estimated
		fmt.Printf("profiled on a 10%% sample in %.1f simulated seconds\n", prof.ProfilingTime)
	}

	sched, err := core.Compute(core.Options{Cluster: c, Order: order, Seed: *seed,
		DisableEvalCache: *noCache, Approximate: *approx, DisableBoundPrune: *noPrune}, planJob)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("workload %s on %d nodes (order: %s)\n", job.Name, *nodes, order)
	fmt.Printf("parallel stages K = %v\n", sched.K)
	fmt.Printf("execution paths:\n")
	for i, p := range sched.Paths {
		fmt.Printf("  P%d: %v\n", i+1, p.Stages)
	}
	fmt.Printf("delay schedule X (seconds after ready):\n")
	ids := make([]int, 0, len(sched.Delays))
	for id := range sched.Delays {
		ids = append(ids, int(id))
	}
	sort.Ints(ids)
	if len(ids) == 0 {
		fmt.Println("  (no stages delayed)")
	}
	for _, id := range ids {
		fmt.Printf("  stage %-3d +%.1fs\n", id, sched.Delays[dag.StageID(id)])
	}
	fmt.Printf("predicted parallel-region makespan: %.1fs (stock %.1fs)\n", sched.Makespan, sched.StockMakespan)
	fmt.Printf("Alg. 1 compute time: %v over %d evaluations", sched.ComputeTime, sched.Evaluations)
	if sched.CacheHits+sched.ForkedEvals+sched.FullEvals > 0 {
		fmt.Printf(" (%d cache hits, %d forked, %d full runs)", sched.CacheHits, sched.ForkedEvals, sched.FullEvals)
	}
	if sched.Prune.Bounded > 0 {
		fmt.Printf("\ntwo-tier scan: %d candidates bounded, %d pruned, %d exact, %d approx",
			sched.Prune.Bounded, sched.Prune.Pruned, sched.Prune.Exact, sched.Prune.Approx)
	}
	fmt.Printf("\n\n")

	stock, err := sim.Run(sim.Options{Cluster: c, TrackNode: -1}, []sim.JobRun{{Job: job}})
	if err != nil {
		log.Fatal(err)
	}
	delayed, err := sim.Run(sim.Options{Cluster: c, TrackNode: -1}, []sim.JobRun{{Job: job, Delays: sched.Delays}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("simulated JCT: stock %.1fs → DelayStage %.1fs (−%.1f%%)\n",
		stock.JCT(0), delayed.JCT(0), 100*(stock.JCT(0)-delayed.JCT(0))/stock.JCT(0))
	if *dotPath != "" {
		dot, err := jobspec.DOT(job, sched.Delays)
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*dotPath, []byte(dot), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("schedule DAG written to %s\n", *dotPath)
	}
	if delayed.JCT(0) > stock.JCT(0) {
		fmt.Fprintln(os.Stderr, "warning: schedule regressed on the true job (profiling noise?)")
		os.Exit(1)
	}
}
