// Command analyze recomputes the attribution report offline from a JSONL
// event log written by cmd/simulate -events (or cmd/replay -events with
// -run to pick one labelled run). Given the same workload flags the run
// was produced with, its output is byte-identical to the report cmd/
// simulate -report printed live — attribution is a pure function of the
// event stream plus static context, so post-mortems need only the log.
//
// -trace ID switches to job-lifecycle mode: the log is read for trace
// lines (schema delaystage/trace/v1, written by cmd/schedd -events) and
// the named job's span tree is printed exactly as GET /v1/trace/{id}
// served it live — byte-identical offline reconstruction. -chrometrace
// additionally renders the spans as a chrome://tracing file.
//
// Usage:
//
//	simulate -workload TriangleCount -events run.jsonl
//	analyze -events run.jsonl -workload TriangleCount
//	analyze -events replay.jsonl -run 3 ...
//	cat run.jsonl | analyze -events -
//	analyze -events schedd.jsonl -trace j-0
//	analyze -events schedd.jsonl -trace j-0 -chrometrace j0.trace.json
package main

import (
	"errors"
	"fmt"
	"io"
	"log"
	"os"

	"delaystage/internal/attr"
	"delaystage/internal/cli"
	"delaystage/internal/obs"
	"delaystage/internal/workload"
)

// options is analyze's command line: the flag set and what it parses into.
type options struct {
	fs                              *cli.FlagSet
	jobs                            *cli.Jobs
	eventsPath, traceID, chromePath *string
	run                             *int
	alpha                           *float64
}

// flags builds analyze's flag set.
func flags() *options {
	fs := cli.NewFlagSet("analyze")
	o := &options{fs: fs, jobs: cli.JobFlags(fs, "TriangleCount"),
		// -events names the log analyze reads, not a sink it writes.
		eventsPath: fs.String("events", "", "JSONL event log to analyze (\"-\" = stdin); required"),
		run:        fs.Int("run", -1, "run label to analyze in a multi-run log (-1 = unlabelled lines)"),
		alpha:      fs.Float64("alpha", 0, "engine ContentionOverhead of the logged run (0 = the 0.22 default, negative = none)"),
		traceID:    fs.String("trace", "", "print this job's lifecycle span tree from the log's trace lines instead of attributing"),
		chromePath: fs.String("chrometrace", "", "with -trace: also render the spans as a chrome://tracing JSON file"),
	}
	fs.Check(func() error {
		if *o.eventsPath == "" {
			return errors.New("-events is required")
		}
		return nil
	})
	return o
}

func main() {
	o := flags()
	o.fs.Parse(os.Args[1:])

	r, err := cli.OpenInput(*o.eventsPath)
	if err != nil {
		log.Fatal(err)
	}
	defer r.Close()
	if *o.traceID != "" {
		replayTrace(r, *o.traceID, *o.chromePath)
		return
	}
	logged, err := obs.ReadEvents(r)
	if err != nil {
		log.Fatal(err)
	}
	events := obs.EventsOfRun(logged, *o.run)
	if len(events) == 0 {
		runs := obs.Runs(logged)
		log.Fatalf("analyze: no events with run label %d (labels present: %v)", *o.run, runs)
	}

	c := o.jobs.Cluster()
	job, err := o.jobs.Job(c)
	if err != nil {
		log.Fatal(err)
	}

	// The selected run may contain several job indices (multi-job sims);
	// each is attributed against the same workload description.
	maxJob := 0
	for _, ev := range events {
		if ev.Job > maxJob {
			maxJob = ev.Job
		}
	}
	jobs := make([]*workload.Job, maxJob+1)
	for i := range jobs {
		jobs[i] = job
	}

	rep, err := attr.Build(attr.Context{Cluster: c, Jobs: jobs, Alpha: *o.alpha}, events)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(rep.Render())
}

// replayTrace reconstructs one job's lifecycle span tree from the log's
// trace lines. The JSON printed to stdout is byte-identical to what the
// live GET /v1/trace/{id} endpoint served for the same job.
func replayTrace(r io.Reader, id, chromePath string) {
	traces, err := obs.ReadTraces(r)
	if err != nil {
		log.Fatal(err)
	}
	tr, ok := obs.FindTrace(traces, id)
	if !ok {
		ids := make([]string, 0, len(traces))
		for _, t := range traces {
			ids = append(ids, t.TraceID)
		}
		log.Fatalf("analyze: no trace %q in log (present: %v)", id, ids)
	}
	if err := obs.EncodeTraceJSON(os.Stdout, tr); err != nil {
		log.Fatal(err)
	}
	if chromePath != "" {
		f, err := os.Create(chromePath)
		if err != nil {
			log.Fatal(err)
		}
		if err := obs.WriteTraceChrome(f, tr); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "analyze: wrote %s (open in chrome://tracing or ui.perfetto.dev)\n", chromePath)
	}
}
