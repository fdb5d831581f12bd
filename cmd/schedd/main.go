// Command schedd is the online scheduling service daemon: a long-running
// control plane / data plane pair (internal/service) that admits, plans
// and dispatches continuously arriving DAG jobs over an HTTP/JSON API.
//
// Usage:
//
//	schedd -addr :8080
//	schedd -addr :8080 -policy token-bucket -rate 0.5 -burst 4
//	schedd -addr :0 -policy queue-cap -queue-cap 8 -revise-depth 4
//	schedd -replay trace.csv -once                 # open-loop trace replay
//	schedd -poisson 50 -arrival-rate 0.02 -once    # synthetic Poisson load
//
// API (plus /metrics, /healthz and /debug/pprof from the introspection mux):
//
//	POST /v1/jobs       {"tenant":"t","arrival":12.5,"job":{<jobspec JSON>}}
//	GET  /v1/jobs       every submission
//	GET  /v1/jobs/{id}  one submission's status
//	GET  /v1/plan/{id}  the chosen delay vector and its provenance
//	GET  /v1/trace/{id} the job's lifecycle span tree with decision audit
//	GET  /v1/timeline   the bounded scheduler-milestone ring
//	GET  /v1/cluster    live data-plane state
//
// -events FILE appends one JSONL trace line (schema delaystage/trace/v1)
// per job the moment it finishes; `analyze -events FILE -trace ID`
// reconstructs the /v1/trace/{id} response from it byte-identically
// offline. Diagnostics go to stderr as JSON slog lines (-log-level
// debug|info|warn|error); every job-scoped line carries a trace_id key.
//
// The built-in load drivers submit through the same service entry point
// the HTTP handler uses, so admission, template caching and metrics see
// identical traffic: -replay feeds a batch_task CSV trace (real or from
// cmd/tracegen) at its recorded arrivals; -poisson N generates N gallery
// jobs with exponential inter-arrival gaps. After a driver finishes the
// daemon drains the data plane, prints a JCT summary, and keeps serving
// until SIGINT/SIGTERM unless -once is set. Shutdown is graceful either
// way: signals cancel the driver between submissions and the HTTP server
// closes cleanly.
package main

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"math/rand"
	"os"
	"os/signal"
	"sort"
	"syscall"

	"delaystage/internal/cli"
	"delaystage/internal/cluster"
	"delaystage/internal/metrics"
	"delaystage/internal/obs"
	"delaystage/internal/service"
	"delaystage/internal/trace"
	"delaystage/internal/workload"
)

// options is schedd's command line: the flag set and what it parses into.
// The planning and pacing flags bind straight into the service options.
type options struct {
	fs                               *cli.FlagSet
	svc                              service.Options
	logLevel                         *cli.Log
	addr, policy, replayPath, events *string
	nodes, queueCap, poisson         *int
	rate, burst, arrivalRate         *float64
	seed                             *int64
	once                             *bool
}

// flags builds schedd's flag set.
func flags() *options {
	fs := cli.NewFlagSet("schedd")
	o := &options{fs: fs, logLevel: cli.LogFlags(fs),
		addr:        fs.String("addr", ":8080", "HTTP listen address (\":0\" picks a free port)"),
		nodes:       fs.Int("nodes", 10, "m4.large nodes in the simulated cluster"),
		policy:      fs.String("policy", "accept-all", "admission policy: accept-all, token-bucket, queue-cap"),
		rate:        fs.Float64("rate", 1, "token-bucket refill rate in jobs per wall-clock second"),
		burst:       fs.Float64("burst", 5, "token-bucket burst size per tenant"),
		queueCap:    fs.Int("queue-cap", 8, "queue-cap policy: reject when this many jobs are live"),
		replayPath:  fs.String("replay", "", "open-loop driver: replay this batch_task CSV trace at its recorded arrivals"),
		poisson:     fs.Int("poisson", 0, "open-loop driver: submit this many synthetic gallery jobs with Poisson arrivals"),
		arrivalRate: fs.Float64("arrival-rate", 0.01, "Poisson arrival rate λ in jobs per simulated second"),
		seed:        fs.Int64("seed", 1, "seed for the Poisson driver's job shapes and gaps"),
		once:        fs.Bool("once", false, "exit after the load driver finishes instead of serving until a signal"),
		// -events is the service's trace log, not a simulator event sink.
		events: fs.String("events", "", "append one JSONL trace line per finished job to this file (offline replay via analyze -trace)"),
	}
	so := &o.svc
	fs.IntVar(&so.ReviseQueueDepth, "revise-depth", 0, "dispatch submit-when-ready (skip Alg. 1) when the live-job count reaches this (0 = off)")
	fs.IntVar(&so.CacheCapacity, "cache-size", 0, "plan-template cache and job-spec intern table capacity, each (0 = 512, negative disables both)")
	fs.IntVar(&so.MaxCandidates, "max-candidates", 16, "delay candidates per stage in the planning sweep")
	fs.Float64Var(&so.SlotSeconds, "slot", 1, "delay granularity in seconds")
	fs.BoolVar(&so.FairByJob, "fair", true, "share resources first equally among jobs (Sec. 5.3)")
	fs.BoolVar(&so.ApproximatePlanning, "approx-plan", false, "answer planning decisions from the analytic Eq. 1–3 model (no simulation on the control-plane hot path)")
	fs.Float64Var(&so.TimeScale, "timescale", 1, "simulated seconds per wall-clock second for submissions without an arrival")
	fs.Check(func() error {
		switch *o.policy {
		case "accept-all":
			so.Admission = service.AcceptAll{}
		case "token-bucket":
			so.Admission = service.NewTokenBucket(*o.rate, *o.burst)
		case "queue-cap":
			so.Admission = service.QueueDepthCap{Max: *o.queueCap}
		default:
			return fmt.Errorf("unknown -policy %q (want accept-all, token-bucket or queue-cap)", *o.policy)
		}
		if *o.replayPath != "" && *o.poisson > 0 {
			return errors.New("-replay and -poisson are mutually exclusive")
		}
		return nil
	})
	return o
}

func main() {
	o := flags()
	o.fs.Parse(os.Args[1:])
	logger := o.logLevel.Logger()
	fail := func(err error) {
		logger.Error(err.Error())
		os.Exit(cli.ExitRuntime)
	}

	// SIGINT/SIGTERM cancel the context: the load driver stops between
	// submissions, the data plane finishes its current advance, and the
	// HTTP server shuts down cleanly instead of dying mid-response.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	c := cluster.NewM4LargeCluster(*o.nodes)
	o.svc.Cluster, o.svc.Logger = c, logger
	// TraceLog stays the untyped nil interface when -events is unset: a
	// typed-nil *os.File would pass the service's `!= nil` export guard
	// and fail every write with EINVAL.
	if *o.events != "" {
		f, err := os.Create(*o.events)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		o.svc.TraceLog = f
	}
	svc, err := service.New(o.svc)
	if err != nil {
		fail(err)
	}

	srv, err := obs.ServeHandler(*o.addr, svc.Handler())
	if err != nil {
		fail(err)
	}
	logger.Info(fmt.Sprintf("serving on http://%s", srv.Addr),
		"policy", o.svc.Admission.Name(), "nodes", *o.nodes)

	if *o.replayPath != "" || *o.poisson > 0 {
		if err := drive(ctx, logger, svc, c, *o.replayPath, *o.poisson, *o.arrivalRate, *o.seed); err != nil {
			fail(err)
		}
	}

	if !*o.once {
		// Serve until a signal arrives or the endpoint dies under us.
		select {
		case <-ctx.Done():
		case err := <-srv.Done():
			if err != nil {
				fail(fmt.Errorf("http server: %w", err))
			}
		}
	}
	if err := srv.Close(); err != nil {
		fail(fmt.Errorf("shutdown: %w", err))
	}
}

// drive runs the open-loop load driver: submit every job through the same
// entry point the HTTP handler uses, drain the data plane, and print a
// completion summary. Cancellation stops between submissions.
func drive(ctx context.Context, logger *slog.Logger, svc *service.Service, c *cluster.Cluster,
	replayPath string, poisson int, arrivalRate float64, seed int64) error {
	type arrival struct {
		job *workload.Job
		at  float64
	}
	var load []arrival
	switch {
	case replayPath != "":
		f, err := os.Open(replayPath)
		if err != nil {
			return err
		}
		tr, err := trace.Parse(f)
		f.Close()
		if err != nil {
			return err
		}
		tr.SortByArrival()
		base := math.Inf(1)
		for _, j := range tr.Jobs {
			base = math.Min(base, j.Arrival)
		}
		for i := range tr.Jobs {
			wl, err := tr.Jobs[i].Workload(c, trace.DefaultSplit, nil)
			if err != nil {
				return fmt.Errorf("job %s: %w", tr.Jobs[i].Name, err)
			}
			load = append(load, arrival{job: wl, at: tr.Jobs[i].Arrival - base})
		}
	default:
		rng := rand.New(rand.NewSource(seed))
		gallery := workload.Gallery(c, 1)
		names := make([]string, 0, len(gallery))
		for name := range gallery {
			names = append(names, name)
		}
		sort.Strings(names)
		at := 0.0
		for i := 0; i < poisson; i++ {
			at += rng.ExpFloat64() / arrivalRate
			load = append(load, arrival{job: gallery[names[rng.Intn(len(names))]], at: at})
		}
	}

	accepted := 0
	for i, a := range load {
		if err := ctx.Err(); err != nil {
			logger.Warn(fmt.Sprintf("driver interrupted after %d/%d submissions", i, len(load)))
			return nil
		}
		at := a.at
		st, err := svc.Submit(service.SubmitRequest{Tenant: "driver", Job: a.job, Arrival: &at})
		if err != nil {
			return fmt.Errorf("submit %s: %w", a.job.Name, err)
		}
		if st.State != service.StateRejected {
			accepted++
		}
	}
	if err := svc.Drain(); err != nil {
		return err
	}
	var jcts []float64
	for _, st := range svc.Jobs() {
		if st.State == service.StateDone {
			jcts = append(jcts, st.JCT)
		}
	}
	cs := svc.ClusterState()
	logger.Info("driver done",
		"submitted", cs.Submitted, "admitted", cs.Admitted, "rejected", cs.Rejected,
		"completed", cs.Done, "mean_jct", metrics.Mean(jcts), "epochs", cs.Epoch)
	return nil
}
