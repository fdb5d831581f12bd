// Command simulate runs one workload under one scheduling strategy on the
// fluid cluster simulator and prints the stage timeline (Gantt), the
// tracked worker's utilization summary, and the JCT.
//
// Usage:
//
//	simulate [-workload TriangleCount] [-strategy delaystage|spark|aggshuffle|fuxi] [-nodes 30] [-scale 1.0]
//	simulate -spec job.json -strategy delaystage
//	simulate -fault-rate 0.1 -straggler-frac 0.25 -straggler-factor 3 -guarded
//	simulate -crash-node 1 -crash-at 120 -fault-seed 7 -max-retries 4
//	simulate -node-mttf 600 -mttf-horizon 200 -slow-node-frac 0.2 -slow-node-factor 3
//	simulate -crash-rack 1 -rack-size 4 -crash-rack-at 90 -speculate -blacklist-after 2
//	simulate -events run.jsonl -chrometrace trace.json -json summary.json
//	simulate -report                      # append the attribution report
//	simulate -serve 127.0.0.1:9090 -linger 30s   # live /metrics, /healthz, pprof
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"delaystage/internal/attr"
	"delaystage/internal/cli"
	"delaystage/internal/cluster"
	"delaystage/internal/core"
	"delaystage/internal/faults"
	"delaystage/internal/metrics"
	"delaystage/internal/obs"
	"delaystage/internal/scheduler"
	"delaystage/internal/sim"
	"delaystage/internal/workload"
)

// options is simulate's command line: the flag set and what it parses into.
type options struct {
	fs    *cli.FlagSet
	jobs  *cli.Jobs
	fault *cli.Faults
	sinks *cli.Sinks
	intro *cli.Introspection

	stratName, jsonPath                 *string
	crashNode, rackSize, crashRack      *int
	crashAt, crashRackAt, specThreshold *float64
	guarded, approxPlan, report         *bool
}

// flags builds simulate's flag set.
func flags() *options {
	fs := cli.NewFlagSet("simulate")
	o := &options{fs: fs, jobs: cli.JobFlags(fs, "TriangleCount"), fault: cli.FaultFlags(fs),
		sinks: cli.SinkFlags(fs, "the run"), intro: cli.IntrospectionFlags(fs, "the run"),

		stratName:     fs.String("strategy", "delaystage", "spark | aggshuffle | fuxi | delaystage | delaystage-ascending | delaystage-random"),
		crashNode:     fs.Int("crash-node", -1, "node to crash (-1 = none)"),
		crashAt:       fs.Float64("crash-at", 0, "crash time in simulated seconds"),
		rackSize:      fs.Int("rack-size", 0, "nodes per rack for -crash-rack (0 = no rack topology)"),
		crashRack:     fs.Int("crash-rack", -1, "rack whose machines all crash at -crash-rack-at (-1 = none; requires -rack-size)"),
		crashRackAt:   fs.Float64("crash-rack-at", 0, "rack crash time in simulated seconds"),
		specThreshold: fs.Float64("spec-threshold", 0, "speculation slowness threshold vs the stage median (0 = default 1.5)"),
		guarded:       fs.Bool("guarded", false, "attach the runtime watchdog to a delaystage strategy (cancels stale delays)"),
		approxPlan:    fs.Bool("approx-plan", false, "plan delaystage variants from the analytic Eq. 1–3 model (no simulation per candidate)"),
		jsonPath:      fs.String("json", "", "write a machine-readable run summary to this file (\"-\" = stdout)"),
		report:        fs.Bool("report", false, "append the attribution report (time decomposition, contention matrix, critical path); cmd/analyze reproduces it byte-identically from a -events log"),
	}
	fs.Check(o.check)
	return o
}

// check validates the flags that only make sense together.
func (o *options) check() error {
	if _, err := o.strategy(); err != nil {
		return err
	}
	return o.faultPlan().Validate()
}

// strategy returns the -strategy scheduler.
func (o *options) strategy() (scheduler.Strategy, error) {
	ds := scheduler.DelayStage{Approximate: *o.approxPlan}
	var strat scheduler.Strategy
	switch *o.stratName {
	case "spark":
		strat = scheduler.Spark{}
	case "aggshuffle":
		strat = scheduler.AggShuffle{}
	case "fuxi":
		strat = scheduler.Fuxi{}
	case "delaystage":
		strat = ds
	case "delaystage-ascending":
		ds.Order = core.Ascending
		strat = ds
	case "delaystage-random":
		ds.Order = core.Random
		strat = ds
	default:
		return nil, fmt.Errorf("unknown strategy %q", *o.stratName)
	}
	if _, ok := strat.(scheduler.DelayStage); !ok && (*o.approxPlan || *o.guarded) {
		return nil, fmt.Errorf("-approx-plan and -guarded require a delaystage strategy, got %q", *o.stratName)
	}
	if *o.guarded {
		strat = scheduler.GuardedDelayStage{DelayStage: ds}
	}
	return strat, nil
}

// faultPlan is the shared fault plan plus simulate's scripted crashes.
func (o *options) faultPlan() faults.FaultPlan {
	plan := o.fault.Plan
	plan.RackSize = *o.rackSize
	if *o.crashNode >= 0 {
		plan.Crashes = []faults.NodeCrash{{Node: *o.crashNode, At: *o.crashAt}}
	}
	if *o.crashRack >= 0 {
		plan.RackCrashes = []faults.RackCrash{{Rack: *o.crashRack, At: *o.crashRackAt}}
	}
	return plan
}

func main() {
	o := flags()
	o.fs.Parse(os.Args[1:])
	say := func(msg string) { fmt.Fprintln(os.Stderr, msg) }

	c := o.jobs.Cluster()
	job, err := o.jobs.Job(c)
	if err != nil {
		log.Fatal(err)
	}
	strat, err := o.strategy()
	if err != nil {
		log.Fatal(err)
	}
	inj, err := faults.NewInjector(o.faultPlan())
	if err != nil {
		log.Fatal(err)
	}
	p, err := strat.Plan(c, job)
	if err != nil {
		log.Fatal(err)
	}
	if err := o.sinks.Open(); err != nil {
		log.Fatal(err)
	}
	reg, err := o.intro.Start(say)
	if err != nil {
		log.Fatal(err)
	}
	var live *attr.Live
	if reg != nil {
		live = attr.NewLive(reg, fmt.Sprintf("strategy=%q", strat.Name()))
	}
	// The attribution report feeds both -report and the -serve contention
	// series, so it is built once from one event collection.
	var collector *attr.Collector
	if *o.report || reg != nil {
		collector = &attr.Collector{}
	}

	opt := sim.Options{Cluster: c, TrackNode: 0, TrackCluster: o.sinks.Chrome != nil,
		AggShuffle: p.AggShuffle, Faults: inj, MaxAttempts: o.fault.MaxAttempts,
		Speculation: o.fault.Speculation, SpeculationThreshold: *o.specThreshold, BlacklistAfter: o.fault.BlacklistAfter,
		Watchdog: p.Watchdog, Observer: obs.Multi(o.sinks.JSONL, o.sinks.Chrome, collector, live)}
	res, err := sim.Run(opt, []sim.JobRun{{Job: job, Delays: p.Delays}})
	if err != nil {
		log.Fatal(err)
	}
	// Emit the artifacts before deciding success: a failed run's event log
	// and trace are exactly what one wants for the post-mortem.
	if err := o.sinks.Close(res); err != nil {
		log.Fatal(err)
	}
	if *o.jsonPath != "" {
		sum := obs.NewRunSummary(res)
		sum.Workload = job.Name
		sum.Strategy = strat.Name()
		sum.Nodes = o.jobs.Nodes
		if err := obs.WriteJSON(*o.jsonPath, sum); err != nil {
			log.Fatal(err)
		}
	}
	if ferr := res.Failed(0); ferr != nil {
		log.Fatalf("job failed after %d retries: %v", res.Retries, ferr)
	}

	fmt.Printf("%s under %s on %d nodes\n\n", job.Name, strat.Name(), o.jobs.Nodes)
	var bars []metrics.GanttBar
	for _, id := range job.Graph.Stages() {
		tl := res.Timeline(0, id)
		bars = append(bars, metrics.GanttBar{
			Label: fmt.Sprintf("Stage %d", id),
			Start: tl.Start, Split: tl.ReadEnd, End: tl.End,
		})
	}
	fmt.Print(metrics.RenderGantt(bars, 72))

	toStep := func(s sim.Series) []metrics.StepPoint {
		out := make([]metrics.StepPoint, len(s))
		for i, p := range s {
			out[i] = metrics.StepPoint{T: p.T, V: p.V}
		}
		return out
	}
	netMean, netStd := metrics.TimeWeightedMeanStd(toStep(res.Node.NetRate), 0, res.JCT(0))
	cpuMean, cpuStd := metrics.TimeWeightedMeanStd(toStep(res.Node.CPUBusy), 0, res.JCT(0))
	fmt.Printf("\nJCT %.1fs   worker-0 net %.1f (±%.1f) MB/s   CPU %.1f%% (±%.1f)\n",
		res.JCT(0), netMean/cluster.MB, netStd/cluster.MB, cpuMean*100, cpuStd*100)
	fmt.Printf("cluster averages: CPU %.1f%%  net %.1f%%  disk %.1f%%  (%d events)\n",
		res.AvgCPUUtil*100, res.AvgNetUtil*100, res.AvgDiskUtil*100, res.Events)
	if res.Retries > 0 {
		fmt.Printf("retries absorbed: %d\n", res.Retries)
	}
	if res.SpecLaunched > 0 || res.Blacklisted > 0 {
		fmt.Printf("speculative clones: %d launched, %d won   nodes blacklisted: %d\n",
			res.SpecLaunched, res.SpecWins, res.Blacklisted)
	}
	if len(p.Delays) > 0 {
		fmt.Printf("delays: %v\n", p.Delays)
	}
	if collector != nil {
		rep, err := attr.Build(attr.Context{Cluster: c, Jobs: []*workload.Job{job}}, collector.Events)
		if err != nil {
			log.Fatal(err)
		}
		if *o.report {
			fmt.Println()
			fmt.Print(rep.Render())
		}
		if live != nil {
			live.Publish(rep)
		}
	}
	if reg != nil {
		// Observed last: CI polls for this histogram, so once it shows,
		// every other series of the run is final.
		reg.Histogram("attr_makespan_seconds", fmt.Sprintf("{strategy=%q}", strat.Name()),
			"makespan distribution of completed runs",
			obs.ExpBuckets(10, 2, 10)).Observe(res.Makespan)
	}
	if err := o.intro.Close(context.Background()); err != nil {
		log.Fatal(err)
	}
}
