// Command delaystage runs the DelayStage delay-time calculator (Alg. 1)
// and prints the computed submission delays X, the predicted makespans,
// and the simulated JCT comparison. The job comes from a built-in paper
// workload, a JSON job spec (see internal/jobspec), or a Spark event log.
//
// Usage:
//
//	delaystage [-workload LDA] [-nodes 30] [-scale 1.0] [-order descending|ascending|random] [-profile]
//	delaystage -spec job.json [-dot schedule.dot]
//	delaystage -eventlog app.log
package main

import (
	"fmt"
	"log"
	"os"
	"sort"

	"delaystage/internal/cli"
	"delaystage/internal/cluster"
	"delaystage/internal/core"
	"delaystage/internal/dag"
	"delaystage/internal/eventlog"
	"delaystage/internal/jobspec"
	"delaystage/internal/profiler"
	"delaystage/internal/sim"
	"delaystage/internal/workload"
)

// options is delaystage's command line: the flag set and what it parses
// into.
type options struct {
	fs                          *cli.FlagSet
	jobs                        *cli.Jobs
	orderName, logPath, dotPath *string
	seed                        *int64
	profile, approx             *bool
}

// flags builds delaystage's flag set.
func flags() *options {
	fs := cli.NewFlagSet("delaystage")
	o := &options{fs: fs, jobs: cli.JobFlags(fs, "LDA"),
		orderName: fs.String("order", "descending", "execution-path order: descending | ascending | random"),
		seed:      fs.Int64("seed", 1, "seed for the random order / profiling noise"),
		profile:   fs.Bool("profile", false, "plan on profiled (noisy) parameters, as the prototype does"),
		approx:    fs.Bool("approx-plan", false, "plan from the analytic Eq. 1–3 model (no simulation per candidate; makespans are predictions)"),
		logPath:   fs.String("eventlog", "", "Spark event log to derive the job from (overrides -workload)"),
		dotPath:   fs.String("dot", "", "write the schedule-annotated DAG as Graphviz DOT to this file"),
	}
	fs.Check(func() error {
		_, err := o.parseOrder()
		return err
	})
	return o
}

// parseOrder returns the -order execution-path order.
func (o *options) parseOrder() (core.Order, error) {
	switch *o.orderName {
	case "descending":
		return core.Descending, nil
	case "ascending":
		return core.Ascending, nil
	case "random":
		return core.Random, nil
	}
	return 0, fmt.Errorf("unknown order %q", *o.orderName)
}

// sparkJob derives the job from a Spark event log.
func sparkJob(path string, c *cluster.Cluster) (*workload.Job, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	l, err := eventlog.Parse(f)
	if err != nil {
		return nil, err
	}
	return l.Job(c)
}

func main() {
	o := flags()
	o.fs.Parse(os.Args[1:])

	c := o.jobs.Cluster()
	var job *workload.Job
	var err error
	if *o.logPath != "" && o.jobs.Spec == "" { // -spec overrides -eventlog
		job, err = sparkJob(*o.logPath, c)
	} else {
		job, err = o.jobs.Job(c)
	}
	if err != nil {
		log.Fatal(err)
	}

	order, err := o.parseOrder()
	if err != nil {
		log.Fatal(err)
	}

	planJob := job
	if *o.profile {
		prof, err := profiler.ProfileJob(job, profiler.Options{Seed: *o.seed})
		if err != nil {
			log.Fatal(err)
		}
		planJob = prof.Estimated
		fmt.Printf("profiled on a 10%% sample in %.1f simulated seconds\n", prof.ProfilingTime)
	}

	sched, err := core.Compute(core.Options{Cluster: c, Order: order, Seed: *o.seed,
		Approximate: *o.approx}, planJob)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("workload %s on %d nodes (order: %s)\n", job.Name, o.jobs.Nodes, order)
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
	if *o.dotPath != "" {
		dot, err := jobspec.DOT(job, sched.Delays)
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*o.dotPath, []byte(dot), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("schedule DAG written to %s\n", *o.dotPath)
	}
	if delayed.JCT(0) > stock.JCT(0) {
		fmt.Fprintln(os.Stderr, "warning: schedule regressed on the true job (profiling noise?)")
		os.Exit(1)
	}
}
