package experiments

import (
	"math"
	"math/rand"

	"delaystage/internal/faults"
	"delaystage/internal/scheduler"
	"delaystage/internal/sim"
	"delaystage/internal/workload"
)

// FaultPoint is one cell of the fault sweep: the injected severity plus
// the measured JCT of every strategy on every workload.
type FaultPoint struct {
	FailProb        float64
	StragglerFrac   float64
	StragglerFactor float64
	// CrashFrac > 0 crashes node 1 at CrashFrac × the workload's
	// fault-free Spark JCT.
	CrashFrac float64
	// JCT[workload][strategy] in seconds. Strategies: "spark",
	// "delaystage", "guarded".
	JCT map[string]map[string]float64
}

// MachinePoint is one cell of the machine-level sweep: hash-based node
// crashes (an MTTF process), persistently slow machines, and the
// mitigation stack (speculation + blacklisting) off or on. The same
// injector seed is used for both mitigation settings, so each on/off pair
// faces the identical fault draws.
type MachinePoint struct {
	// MTTFFrac expresses NodeMTTF as a multiple of the workload's
	// fault-free Spark JCT (0 = no MTTF crash process), keeping the
	// expected crash count invariant under cfg.Scale.
	MTTFFrac       float64
	SlowNodeFrac   float64
	SlowNodeFactor float64
	Mitigation     bool
	// JCT[workload][strategy] in seconds; +Inf marks a job that exhausted
	// its retry budget and failed.
	JCT map[string]map[string]float64
}

// FaultSweepResult is the full grid.
type FaultSweepResult struct {
	Points []FaultPoint
	// MachinePoints is the machine-level axis: MTTF crashes × slow
	// machines × mitigation on/off.
	MachinePoints []MachinePoint
	// MispredictNoise is the planning-time profile error applied to the
	// DelayStage variants (spark plans nothing, so it is immune).
	MispredictNoise float64
}

// faultSweepGrid is the swept (failure rate, straggler severity, node
// crash) grid. crashFrac > 0 crashes node 1 at that fraction of the
// workload's fault-free Spark JCT — late enough that stock Spark has
// consumed most parent outputs, so the recomputation bill lands hardest
// on plans still holding stages back.
var faultSweepGrid = []struct {
	failProb, frac, factor, crashFrac float64
}{
	{0, 0, 1, 0},
	{0.05, 0, 1, 0},
	{0.15, 0, 1, 0},
	{0, 0.25, 3, 0},
	{0.05, 0.25, 3, 0},
	{0.15, 0.25, 3, 0},
	{0, 0, 1, 0.65},
	{0.05, 0.25, 3, 0.55},
}

// FaultSweep measures how the strategies degrade when the perfect-world
// assumptions behind Alg. 1 break: profiled R_k/s_k/d_k are wrong at
// planning time (misprediction noise), and at runtime tasks fail and
// partitions straggle. Stock Spark plans nothing, so it only pays the
// faults; open-loop DelayStage additionally pays for delays computed from
// stale numbers; guarded DelayStage watches the plan and degrades to
// submit-when-ready the moment it stops tracking reality. The paper's
// never-worse claim (Sec. 4) only survives faults in the guarded form —
// this sweep is the evidence.
func FaultSweep(cfg Config) (*FaultSweepResult, error) {
	cfg.defaults()
	c := cfg.cluster()
	jobs := workload.PaperWorkloads(c, cfg.Scale)
	out := &FaultSweepResult{MispredictNoise: 0.5}

	// Planning sees noisy profiles: one seeded rng, workloads in fixed
	// order, so the whole sweep reproduces from cfg.Seed.
	rng := rand.New(rand.NewSource(cfg.Seed))
	noise, err := faults.NewInjector(faults.FaultPlan{Seed: cfg.Seed, MispredictNoise: out.MispredictNoise})
	if err != nil {
		return nil, err
	}
	type planned struct {
		believed *workload.Job // the noisy job the planner saw
		ds       scheduler.Plan
		// guard is shared by every grid cell's guarded run (nil when the
		// plan delays nothing).
		guard sim.Watchdog
	}
	plans := map[string]planned{}
	cleanJCT := map[string]float64{}
	for _, name := range workloadNames {
		believed := noise.PerturbJob(rng, jobs[name])
		ds, err := scheduler.DelayStage{}.Plan(c, believed)
		if err != nil {
			return nil, err
		}
		guard, err := scheduler.GuardedDelayStage{}.Guard(c, believed, ds)
		if err != nil {
			return nil, err
		}
		plans[name] = planned{believed: believed, ds: ds, guard: guard}
		clean, err := sim.Run(sim.Options{Cluster: c, TrackNode: -1},
			[]sim.JobRun{{Job: jobs[name]}})
		if err != nil {
			return nil, err
		}
		cleanJCT[name] = clean.JCT(0)
	}

	fprintf(cfg.W, "FAULT sweep: JCT (s) under task failures and stragglers, planning noise ±%.0f%%\n",
		100*out.MispredictNoise)
	fprintf(cfg.W, "%-26s %-10s %-10s %-10s %-10s\n", "point / workload", "spark", "delaystage", "guarded", "guard-win%")

	// Every (grid point, workload) cell derives its fault set from
	// cfg.Seed + pi*101 and reads only the sequentially-computed plans
	// above, so the grid fans out; rows are collected indexed and rendered
	// in the original order afterwards.
	rows := make([]map[string]float64, len(faultSweepGrid)*len(workloadNames))
	err = cfg.forEach(len(rows), func(ci int) error {
		pi := ci / len(workloadNames)
		g := faultSweepGrid[pi]
		name := workloadNames[ci%len(workloadNames)]
		job := jobs[name]
		pl := plans[name]
		row := map[string]float64{}
		var crashes []faults.NodeCrash
		if g.crashFrac > 0 {
			crashes = []faults.NodeCrash{{Node: 1, At: g.crashFrac * cleanJCT[name]}}
		}
		for _, label := range []string{"spark", "delaystage", "guarded"} {
			// The same hash-seeded injector for all strategies: every
			// run sees the identical fault set.
			inj, err := faults.NewInjector(faults.FaultPlan{
				Seed:            cfg.Seed + int64(pi)*101,
				TaskFailureProb: g.failProb,
				StragglerFrac:   g.frac,
				StragglerFactor: g.factor,
				Crashes:         crashes,
			})
			if err != nil {
				return err
			}
			opt := sim.Options{Cluster: c, TrackNode: -1, Faults: inj, MaxAttempts: 8}
			run := sim.JobRun{Job: job}
			switch label {
			case "delaystage":
				run.Delays = pl.ds.Delays
			case "guarded":
				run.Delays, opt.Watchdog = pl.ds.Delays, pl.guard
			}
			res, err := sim.Run(opt, []sim.JobRun{run})
			if err != nil {
				return err
			}
			if ferr := res.Failed(0); ferr != nil {
				return ferr
			}
			row[label] = res.JCT(0)
		}
		rows[ci] = row
		return nil
	})
	if err != nil {
		return nil, err
	}

	for pi, g := range faultSweepGrid {
		pt := FaultPoint{FailProb: g.failProb, StragglerFrac: g.frac, StragglerFactor: g.factor,
			CrashFrac: g.crashFrac, JCT: map[string]map[string]float64{}}
		fprintf(cfg.W, "fail=%.2f straggle=%.2fx%g crash=%.2f\n", g.failProb, g.frac, g.factor, g.crashFrac)
		for wi, name := range workloadNames {
			row := rows[pi*len(workloadNames)+wi]
			pt.JCT[name] = row
			win := 100 * (row["spark"] - row["guarded"]) / row["spark"]
			fprintf(cfg.W, "  %-24s %-10.1f %-10.1f %-10.1f %+.1f\n",
				name, row["spark"], row["delaystage"], row["guarded"], win)
		}
		out.Points = append(out.Points, pt)
	}

	// Machine-level axis: whole machines die on a hash-based MTTF process
	// or run persistently slow, with the mitigation stack off and on. The
	// horizon is capped well below the run's length: an open-ended crash
	// process feeds back through blacklisting (longer run → more crashes →
	// fewer nodes → longer run) and measures the feedback loop, not the
	// scheduler.
	fprintf(cfg.W, "MACHINE sweep: node crashes (MTTF) and slow machines; mitigation = speculation + blacklisting\n")
	fprintf(cfg.W, "%-26s %-10s %-10s %-10s %-10s\n", "point / workload", "spark", "delaystage", "guarded", "guard-win%")
	mrows := make([]map[string]float64, len(machineSweepGrid)*2*len(workloadNames))
	err = cfg.forEach(len(mrows), func(ci int) error {
		pi := ci / (2 * len(workloadNames))
		mitigate := ci/len(workloadNames)%2 == 1
		g := machineSweepGrid[pi]
		name := workloadNames[ci%len(workloadNames)]
		pl := plans[name]
		row := map[string]float64{}
		for _, label := range []string{"spark", "delaystage", "guarded"} {
			// One seed per (point, workload): the on/off mitigation pair
			// and all three strategies face identical fault draws.
			inj, err := faults.NewInjector(faults.FaultPlan{
				Seed:           cfg.Seed + int64(pi)*211 + 7,
				NodeMTTF:       g.mttfFrac * cleanJCT[name],
				MTTFHorizon:    0.35 * cleanJCT[name],
				SlowNodeFrac:   g.slowFrac,
				SlowNodeFactor: g.slowFactor,
			})
			if err != nil {
				return err
			}
			opt := sim.Options{Cluster: c, TrackNode: -1, Faults: inj, MaxAttempts: 8}
			if mitigate {
				opt.Speculation = true
				opt.BlacklistAfter = 2
			}
			run := sim.JobRun{Job: jobs[name]}
			switch label {
			case "delaystage":
				run.Delays = pl.ds.Delays
			case "guarded":
				run.Delays, opt.Watchdog = pl.ds.Delays, pl.guard
			}
			res, err := sim.Run(opt, []sim.JobRun{run})
			if err != nil {
				return err
			}
			if res.Failed(0) != nil {
				// A job that exhausted its retry budget is a data point,
				// not an experiment error: machines died under it.
				row[label] = math.Inf(1)
				continue
			}
			row[label] = res.JCT(0)
		}
		mrows[ci] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	for pi, g := range machineSweepGrid {
		for half, mitigate := range []bool{false, true} {
			mit := "off"
			if mitigate {
				mit = "on"
			}
			pt := MachinePoint{MTTFFrac: g.mttfFrac, SlowNodeFrac: g.slowFrac,
				SlowNodeFactor: g.slowFactor, Mitigation: mitigate,
				JCT: map[string]map[string]float64{}}
			fprintf(cfg.W, "mttf=%.1fxJCT slow=%.2fx%g mitigation=%s\n", g.mttfFrac, g.slowFrac, g.slowFactor, mit)
			for wi, name := range workloadNames {
				row := mrows[(pi*2+half)*len(workloadNames)+wi]
				pt.JCT[name] = row
				win := 100 * (row["spark"] - row["guarded"]) / row["spark"]
				fprintf(cfg.W, "  %-24s %-10.1f %-10.1f %-10.1f %+.1f\n",
					name, row["spark"], row["delaystage"], row["guarded"], win)
			}
			out.MachinePoints = append(out.MachinePoints, pt)
		}
	}
	return out, nil
}

// machineSweepGrid is the machine-level severity grid; each point runs
// with mitigation off and on.
var machineSweepGrid = []struct {
	mttfFrac, slowFrac, slowFactor float64
}{
	{1.5, 0, 1},
	{0, 0.25, 3},
	{1.5, 0.25, 3},
}
