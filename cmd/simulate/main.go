// Command simulate runs one workload under one scheduling strategy on the
// fluid cluster simulator and prints the stage timeline (Gantt), the
// tracked worker's utilization summary, and the JCT.
//
// Usage:
//
//	simulate [-workload TriangleCount] [-strategy delaystage|spark|aggshuffle|fuxi] [-nodes 30] [-scale 1.0] [-parallelism n]
//	simulate -spec job.json -strategy delaystage
//	simulate -fault-rate 0.1 -straggler-frac 0.25 -straggler-factor 3 -guarded
//	simulate -crash-node 1 -crash-at 120 -fault-seed 7 -max-retries 4
//	simulate -node-mttf 600 -mttf-horizon 200 -slow-node-frac 0.2 -slow-node-factor 3
//	simulate -crash-rack 1 -rack-size 4 -crash-rack-at 90 -speculate -blacklist-after 2
//	simulate -checkpoint-dir ckpt -checkpoint-every 30        # crash-safe run
//	simulate -checkpoint-dir ckpt -checkpoint-every 30 -resume # continue after a kill
//	simulate -events run.jsonl -chrometrace trace.json -json summary.json
//	simulate -report                      # append the attribution report
//	simulate -serve 127.0.0.1:9090 -linger 30s   # live /metrics, /healthz, pprof
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"delaystage/internal/attr"
	"delaystage/internal/ckpt"
	"delaystage/internal/cluster"
	"delaystage/internal/core"
	"delaystage/internal/faults"
	"delaystage/internal/jobspec"
	"delaystage/internal/metrics"
	"delaystage/internal/obs"
	"delaystage/internal/scheduler"
	"delaystage/internal/sim"
	"delaystage/internal/workload"
)

func main() {
	name := flag.String("workload", "TriangleCount", "ALS | ConnectedComponents | CosineSimilarity | LDA | TriangleCount")
	stratName := flag.String("strategy", "delaystage", "spark | aggshuffle | fuxi | delaystage | delaystage-ascending | delaystage-random")
	nodes := flag.Int("nodes", 30, "cluster size")
	scale := flag.Float64("scale", 1.0, "workload duration scale")
	specPath := flag.String("spec", "", "JSON job spec (overrides -workload)")
	faultRate := flag.Float64("fault-rate", 0, "per-partition task failure probability")
	stragFrac := flag.Float64("straggler-frac", 0, "fraction of partitions that straggle")
	stragFactor := flag.Float64("straggler-factor", 1, "slowdown multiplier of straggling partitions")
	crashNode := flag.Int("crash-node", -1, "node to crash (-1 = none)")
	crashAt := flag.Float64("crash-at", 0, "crash time in simulated seconds")
	nodeMTTF := flag.Float64("node-mttf", 0, "mean time to failure per node in simulated seconds; every node draws a hash-based crash time (0 = off)")
	mttfHorizon := flag.Float64("mttf-horizon", 0, "only MTTF crash draws before this simulated time take effect (0 = unbounded)")
	slowNodeFrac := flag.Float64("slow-node-frac", 0, "fraction of nodes that run persistently slow")
	slowNodeFactor := flag.Float64("slow-node-factor", 1, "slowdown multiplier of persistently slow nodes")
	rackSize := flag.Int("rack-size", 0, "nodes per rack for -crash-rack (0 = no rack topology)")
	crashRack := flag.Int("crash-rack", -1, "rack whose machines all crash at -crash-rack-at (-1 = none; requires -rack-size)")
	crashRackAt := flag.Float64("crash-rack-at", 0, "rack crash time in simulated seconds")
	faultSeed := flag.Int64("fault-seed", 1, "seed of the fault injector's deterministic draws")
	maxRetries := flag.Int("max-retries", 0, "attempts per partition before the job fails (0 = default 4)")
	speculate := flag.Bool("speculate", false, "launch speculative clones of straggling partitions on other nodes")
	specThreshold := flag.Float64("spec-threshold", 0, "speculation slowness threshold vs the stage median (0 = default 1.5)")
	blacklistAfter := flag.Int("blacklist-after", 0, "take a node out of placement after this many faults on it (0 = off)")
	ckptDir := flag.String("checkpoint-dir", "", "write crash-safe run checkpoints into this directory (requires -checkpoint-every)")
	ckptEvery := flag.Float64("checkpoint-every", 0, "checkpoint cadence in simulated seconds")
	resume := flag.Bool("resume", false, "resume from the checkpoint in -checkpoint-dir if one exists (missing or stale checkpoints start fresh)")
	guarded := flag.Bool("guarded", false, "attach the runtime watchdog to a delaystage strategy (cancels stale delays)")
	parallelism := flag.Int("parallelism", 1, "goroutines for the delaystage candidate scan (plan is bit-identical at any setting)")
	approxPlan := flag.Bool("approx-plan", false, "plan delaystage variants from the analytic Eq. 1–3 model (no simulation per candidate)")
	eventsPath := flag.String("events", "", "write a JSONL event log of the run to this file (\"-\" = stdout)")
	tracePath := flag.String("chrometrace", "", "write a Chrome trace-event file (chrome://tracing, Perfetto) to this file")
	jsonPath := flag.String("json", "", "write a machine-readable run summary to this file (\"-\" = stdout)")
	report := flag.Bool("report", false, "append the attribution report (time decomposition, contention matrix, critical path); cmd/analyze reproduces it byte-identically from a -events log")
	serveAddr := flag.String("serve", "", "serve live introspection (/metrics, /healthz, /debug/pprof) on this address while the run executes")
	linger := flag.Duration("linger", 0, "keep the -serve endpoint up this long after the run finishes (for scraping short runs)")
	flag.Parse()

	// SIGINT/SIGTERM cancel the context: a checkpointed run stops at the
	// next checkpoint boundary with the file freshly flushed (resumable
	// with -resume), and a -linger endpoint wakes up early.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

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
	case *name == "ALS":
		job = workload.ALS(c, *scale)
	default:
		job = workload.PaperWorkloads(c, *scale)[*name]
	}
	if job == nil {
		log.Fatalf("unknown workload %q", *name)
	}

	var strat scheduler.Strategy
	switch *stratName {
	case "spark":
		strat = scheduler.Spark{}
	case "aggshuffle":
		strat = scheduler.AggShuffle{}
	case "fuxi":
		strat = scheduler.Fuxi{}
	case "delaystage":
		strat = scheduler.DelayStage{Parallelism: *parallelism, Approximate: *approxPlan}
	case "delaystage-ascending":
		strat = scheduler.DelayStage{Order: core.Ascending, Parallelism: *parallelism, Approximate: *approxPlan}
	case "delaystage-random":
		strat = scheduler.DelayStage{Order: core.Random, Parallelism: *parallelism, Approximate: *approxPlan}
	default:
		log.Fatalf("unknown strategy %q", *stratName)
	}
	if *approxPlan {
		if _, ok := strat.(scheduler.DelayStage); !ok {
			log.Fatalf("-approx-plan requires a delaystage strategy, got %q", *stratName)
		}
	}
	if *guarded {
		ds, ok := strat.(scheduler.DelayStage)
		if !ok {
			log.Fatalf("-guarded requires a delaystage strategy, got %q", *stratName)
		}
		strat = scheduler.GuardedDelayStage{DelayStage: ds}
	}

	plan := faults.FaultPlan{
		Seed:            *faultSeed,
		TaskFailureProb: *faultRate,
		StragglerFrac:   *stragFrac,
		StragglerFactor: *stragFactor,
		NodeMTTF:        *nodeMTTF,
		MTTFHorizon:     *mttfHorizon,
		SlowNodeFrac:    *slowNodeFrac,
		SlowNodeFactor:  *slowNodeFactor,
		RackSize:        *rackSize,
	}
	if *crashNode >= 0 {
		plan.Crashes = []faults.NodeCrash{{Node: *crashNode, At: *crashAt}}
	}
	if *crashRack >= 0 {
		plan.RackCrashes = []faults.RackCrash{{Rack: *crashRack, At: *crashRackAt}}
	}
	inj, err := faults.NewInjector(plan)
	if err != nil {
		log.Fatal(err)
	}

	p, err := strat.Plan(c, job)
	if err != nil {
		log.Fatal(err)
	}
	var jsonl *obs.JSONL
	var evFile *os.File
	if *eventsPath != "" {
		w := os.Stdout
		if *eventsPath != "-" {
			f, err := os.Create(*eventsPath)
			if err != nil {
				log.Fatal(err)
			}
			evFile = f
			w = f
		}
		jsonl = obs.NewJSONL(w)
	}
	var tracer *obs.ChromeTracer
	if *tracePath != "" {
		tracer = obs.NewChromeTracer()
	}
	var collector *attr.Collector
	if *report {
		collector = &attr.Collector{}
	}
	var live *attr.Live
	var reg *obs.Registry
	var srv *obs.Server
	if *serveAddr != "" {
		reg = obs.NewRegistry()
		live = attr.NewLive(reg, fmt.Sprintf("strategy=%q", strat.Name()))
		s, err := obs.Serve(*serveAddr, reg)
		if err != nil {
			log.Fatal(err)
		}
		srv = s
		fmt.Fprintf(os.Stderr, "serving introspection on http://%s\n", srv.Addr)
	}

	opt := sim.Options{Cluster: c, TrackNode: 0, TrackCluster: tracer != nil,
		AggShuffle: p.AggShuffle, Faults: inj, MaxAttempts: *maxRetries,
		Speculation: *speculate, SpeculationThreshold: *specThreshold, BlacklistAfter: *blacklistAfter,
		Watchdog: p.Watchdog, Observer: obs.Multi(jsonl, tracer, collector, live)}
	runs := []sim.JobRun{{Job: job, Delays: p.Delays}}
	var res *sim.Result
	if *ckptDir != "" {
		// Crash-safe mode: the run halts every -checkpoint-every simulated
		// seconds and atomically rewrites its checkpoint; a killed process
		// re-run with -resume continues from the file and finishes with a
		// bit-identical result. Observers and watchdogs hold external state
		// that cannot be serialized, so the flags are mutually exclusive.
		if *ckptEvery <= 0 || math.IsNaN(*ckptEvery) || math.IsInf(*ckptEvery, 0) {
			log.Fatal("-checkpoint-dir requires a finite -checkpoint-every > 0")
		}
		if opt.Observer != nil || opt.Watchdog != nil {
			log.Fatal("-checkpoint-dir is incompatible with -events, -chrometrace, -report, -serve and -guarded")
		}
		if err := os.MkdirAll(*ckptDir, 0o755); err != nil {
			log.Fatal(err)
		}
		path := filepath.Join(*ckptDir, "simulate.ckpt")
		var st *sim.Stepper
		if *resume {
			st, err = sim.ReadStepperFile(path, opt, runs)
			switch {
			case err == nil:
				fmt.Fprintf(os.Stderr, "resumed from %s\n", path)
			case os.IsNotExist(err):
				fmt.Fprintf(os.Stderr, "no checkpoint at %s; starting fresh\n", path)
			case ckpt.IsFormat(err):
				fmt.Fprintf(os.Stderr, "unusable checkpoint (%v); starting fresh\n", err)
			default:
				log.Fatal(err)
			}
		}
		if st == nil {
			if st, err = sim.NewStepper(opt, runs); err != nil {
				log.Fatal(err)
			}
		}
		res, err = runCheckpointed(ctx, st, path, *ckptEvery)
		if err != nil && errors.Is(err, context.Canceled) {
			// Interrupted between checkpoints: the last one is on disk.
			fmt.Fprintf(os.Stderr, "interrupted (%v); re-run with -resume to continue\n", err)
			os.Exit(130)
		}
	} else {
		if *resume {
			log.Fatal("-resume requires -checkpoint-dir")
		}
		res, err = sim.Run(opt, runs)
	}
	if err != nil {
		log.Fatal(err)
	}
	// Emit the artifacts before deciding success: a failed run's event log
	// and trace are exactly what one wants for the post-mortem.
	if jsonl != nil {
		if err := jsonl.Flush(); err != nil {
			log.Fatal(err)
		}
		if evFile != nil {
			if err := evFile.Close(); err != nil {
				log.Fatal(err)
			}
		}
	}
	if tracer != nil {
		tracer.AddCounters(res)
		f, err := os.Create(*tracePath)
		if err != nil {
			log.Fatal(err)
		}
		if err := tracer.Write(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
	}
	if *jsonPath != "" {
		sum := obs.NewRunSummary(res)
		sum.Workload = job.Name
		sum.Strategy = strat.Name()
		sum.Nodes = *nodes
		if err := obs.WriteJSON(*jsonPath, sum); err != nil {
			log.Fatal(err)
		}
	}
	if ferr := res.Failed(0); ferr != nil {
		log.Fatalf("job failed after %d retries: %v", res.Retries, ferr)
	}

	fmt.Printf("%s under %s on %d nodes\n\n", job.Name, strat.Name(), *nodes)
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
		fmt.Println()
		fmt.Print(rep.Render())
	}
	if reg != nil {
		reg.Histogram("attr_makespan_seconds", fmt.Sprintf("{strategy=%q}", strat.Name()),
			"makespan distribution of completed runs",
			obs.ExpBuckets(10, 2, 10)).Observe(res.Makespan)
		if *linger > 0 {
			fmt.Fprintf(os.Stderr, "lingering %v on http://%s\n", *linger, srv.Addr)
			// A signal cuts the linger short; the endpoint still closes
			// cleanly below.
			timer := time.NewTimer(*linger)
			select {
			case <-ctx.Done():
				timer.Stop()
			case <-timer.C:
			}
		}
		if err := srv.Close(); err != nil {
			log.Fatal(err)
		}
	}
}

// runCheckpointed drives st to the end of its run, pausing it just before
// every multiple of every simulated seconds to rewrite its checkpoint at
// path. Pausing at an event boundary perturbs nothing, so the result is
// bit-identical to an uninterrupted run, and a stepper read back from any
// checkpoint continues on the same cadence to the same result. ctx is
// checked only after a checkpoint is written: an interrupted run always
// leaves a fresh file behind, and returns ctx's error wrapped.
func runCheckpointed(ctx context.Context, st *sim.Stepper, path string, every float64) (*sim.Result, error) {
	for stop := every * (math.Floor(st.Clock()/every) + 1); ; stop += every {
		if err := st.AdvanceBefore(stop); err != nil {
			return nil, err
		}
		if st.Idle() {
			break
		}
		if err := st.WriteFile(path); err != nil {
			return nil, err
		}
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("checkpointed run interrupted before t=%v (checkpoint flushed): %w", stop, err)
		}
	}
	for st.HasPendingEvents() {
		if err := st.StepNextEvent(); err != nil {
			return nil, err
		}
	}
	return st.Result()
}
