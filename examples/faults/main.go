// Faults: what happens to a delay schedule when the cluster misbehaves.
// The LDA job is planned by Alg. 1 from profiles perturbed by ±30% noise,
// then run on a cluster where tasks fail, partitions straggle, and one
// node crashes mid-job. Three strategies face the identical fault set:
// stock Spark (plans nothing, pays only the faults), open-loop DelayStage
// (also pays for delays computed from stale numbers), and guarded
// DelayStage (a watchdog cancels the remaining delays the moment the plan
// stops tracking reality).
//
//	go run ./examples/faults [-fault-rate 0.1] [-crash-frac 0.6] [-seed 1]
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"

	"delaystage/internal/cluster"
	"delaystage/internal/faults"
	"delaystage/internal/obs"
	"delaystage/internal/scheduler"
	"delaystage/internal/sim"
	"delaystage/internal/workload"
)

func main() {
	faultRate := flag.Float64("fault-rate", 0.1, "per-partition task failure probability")
	crashFrac := flag.Float64("crash-frac", 0.6, "crash node 1 at this fraction of the fault-free JCT (0 = no crash)")
	seed := flag.Int64("seed", 1, "seed for profile noise and fault draws")
	flag.Parse()

	c := cluster.NewM4LargeCluster(10)
	job := workload.PaperWorkloads(c, 0.3)["LDA"]

	// The planner sees noisy profiles — reality is `job`, the plan is built
	// from `believed`.
	noise, err := faults.NewInjector(faults.FaultPlan{Seed: *seed, MispredictNoise: 0.3})
	if err != nil {
		log.Fatal(err)
	}
	believed := noise.PerturbJob(rand.New(rand.NewSource(*seed)), job)
	plan, err := scheduler.DelayStage{}.Plan(c, believed)
	if err != nil {
		log.Fatal(err)
	}

	clean, err := sim.Run(sim.Options{Cluster: c, TrackNode: -1}, []sim.JobRun{{Job: job}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("LDA on 10 nodes, fault-free Spark JCT %.1fs; planned delays %v\n\n",
		clean.JCT(0), plan.Delays)

	fp := faults.FaultPlan{Seed: *seed, TaskFailureProb: *faultRate,
		StragglerFrac: 0.2, StragglerFactor: 2.5}
	if *crashFrac > 0 {
		fp.Crashes = []faults.NodeCrash{{Node: 1, At: *crashFrac * clean.JCT(0)}}
	}

	for _, s := range []struct {
		label   string
		delays  bool
		guarded bool
	}{
		{"Spark (no delays)", false, false},
		{"DelayStage (open loop)", true, false},
		{"GuardedDelayStage", true, true},
	} {
		// Hash-seeded draws: every strategy sees the identical fault set.
		inj, err := faults.NewInjector(fp)
		if err != nil {
			log.Fatal(err)
		}
		// An inline observer counts the fault-path events as they happen —
		// the same typed stream the JSONL/Chrome exporters consume.
		var retries, crashes, revisions int
		opt := sim.Options{Cluster: c, TrackNode: -1, Faults: inj, MaxAttempts: 8,
			Observer: obs.Func(func(ev sim.Event) {
				switch ev.Kind {
				case sim.EvTaskRetry:
					retries++
				case sim.EvNodeCrash:
					crashes++
				case sim.EvDelayRevised:
					revisions++
				}
			})}
		jr := sim.JobRun{Job: job}
		if s.delays {
			jr.Delays = plan.Delays
		}
		if s.guarded {
			wd, err := scheduler.GuardedDelayStage{}.Guard(c, believed, plan)
			if err != nil {
				log.Fatal(err)
			}
			opt.Watchdog = wd
		}
		res, err := sim.Run(opt, []sim.JobRun{jr})
		if err != nil {
			log.Fatal(err)
		}
		if ferr := res.Failed(0); ferr != nil {
			log.Fatalf("%s: %v", s.label, ferr)
		}
		fmt.Printf("%-24s JCT %7.1fs  (+%5.1f%% vs fault-free)  retries %d  crashes %d  delay revisions %d\n",
			s.label, res.JCT(0), 100*(res.JCT(0)-clean.JCT(0))/clean.JCT(0), retries, crashes, revisions)
	}
	fmt.Println("\nThe guard trips on the first retry or drift beyond 15% and cancels the")
	fmt.Println("remaining delays, so faults cost guarded DelayStage no more than Spark.")
}
