// Command experiments regenerates every table and figure of the paper's
// evaluation section on the simulated substrate and prints them in paper
// order. See DESIGN.md for the experiment index and EXPERIMENTS.md for the
// recorded paper-vs-measured comparison.
//
// Usage:
//
//	experiments [-scale f] [-nodes n] [-trace-jobs n] [-reps n] [-seed n]
//	            [-parallelism n] [-only fig10,table3,...]
//	            [-json results.json] [-serve 127.0.0.1:9090]
//
// -serve exposes live progress while the grid runs: /metrics (experiments
// completed, grid cells remaining/completed, per-experiment durations),
// /healthz and /debug/pprof. Progress hooks never perturb results — the
// rendered tables are byte-identical with or without -serve.
package main

import (
	"context"
	"fmt"
	"os"
	"strings"
	"time"

	"delaystage/internal/cli"
	"delaystage/internal/experiments"
	"delaystage/internal/obs"
)

// options is experiments' command line: the flag set and what it parses
// into. The numeric flags bind straight into the experiment configuration.
type options struct {
	fs             *cli.FlagSet
	cfg            experiments.Config
	intro          *cli.Introspection
	only, jsonPath *string
}

// flags builds experiments' flag set.
func flags() *options {
	fs := cli.NewFlagSet("experiments")
	o := &options{fs: fs, intro: cli.IntrospectionFlags(fs, "the experiment grid"),
		only:     fs.String("only", "", "comma-separated subset (fig2..fig17, table3, table4, a2, overhead, geo, online, sensitivity, fault)"),
		jsonPath: fs.String("json", "", "write a machine-readable summary of every experiment's results to this file (\"-\" = stdout)"),
	}
	c := &o.cfg
	fs.Float64Var(&c.Scale, "scale", 1.0, "workload duration scale (1.0 = paper-sized)")
	fs.IntVar(&c.Nodes, "nodes", 30, "prototype cluster size")
	fs.IntVar(&c.TraceJobs, "trace-jobs", 600, "jobs in trace-driven experiments")
	fs.IntVar(&c.Reps, "reps", 5, "repetitions for error bars")
	fs.Int64Var(&c.Seed, "seed", 1, "random seed")
	fs.IntVar(&c.Parallelism, "parallelism", 1, "worker count for independent experiment cells (output is bit-identical at any setting)")
	return o
}

func main() {
	o := flags()
	o.fs.Parse(os.Args[1:])
	cfg := o.cfg
	cfg.W = os.Stdout
	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(cli.ExitRuntime)
	}

	var expDone *obs.Counter
	var expSeconds *obs.Histogram
	reg, err := o.intro.Start(func(msg string) { fmt.Fprintln(os.Stderr, msg) })
	if err != nil {
		fail(err)
	}
	if reg != nil {
		expDone = reg.Counter("experiments_completed_total", "", "experiments (figures/tables) completed")
		expSeconds = reg.Histogram("experiments_experiment_seconds", "",
			"wall-clock duration of each experiment", obs.ExpBuckets(0.1, 4, 8))
		cellsDone := reg.Counter("experiments_cells_completed_total", "", "grid cells completed")
		cellsLeft := reg.Gauge("experiments_cells_remaining", "", "grid cells announced but not yet completed")
		cfg.OnGrid = func(n int) { cellsLeft.Add(float64(n)) }
		cfg.OnCell = func() { cellsDone.Inc(); cellsLeft.Add(-1) }
	}
	runners := map[string]func(experiments.Config) (any, error){}
	var order []string
	for _, r := range experiments.Runners() {
		runners[r.Name] = r.Run
		if r.Name != "table4" { // rendered by fig14
			order = append(order, r.Name)
		}
	}
	if *o.only != "" {
		order = nil
		for _, name := range strings.Split(*o.only, ",") {
			name = strings.TrimSpace(strings.ToLower(name))
			if _, ok := runners[name]; !ok {
				fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q\n", name)
				os.Exit(cli.ExitUsage)
			}
			order = append(order, name)
		}
	}
	summary := obs.NewExperimentsSummary(map[string]any{
		"scale": cfg.Scale, "nodes": cfg.Nodes, "trace_jobs": cfg.TraceJobs,
		"reps": cfg.Reps, "seed": cfg.Seed,
	})
	for _, name := range order {
		started := time.Now()
		res, err := runners[name](cfg)
		if err != nil {
			fail(fmt.Errorf("%s: %w", name, err))
		}
		if expDone != nil {
			expDone.Inc()
			expSeconds.Observe(time.Since(started).Seconds())
		}
		if res != nil {
			summary.Results[name] = res
		}
	}
	if *o.jsonPath != "" {
		if err := obs.WriteJSON(*o.jsonPath, summary); err != nil {
			fail(err)
		}
	}
	// No signal handler runs during the experiments, so a signal there
	// ends the process at once; only the linger below waits for one.
	if err := o.intro.Close(context.Background()); err != nil {
		fail(err)
	}
}
