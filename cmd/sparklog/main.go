// Command sparklog inspects a Spark event log the way the DelayStage
// prototype's profiler does: it prints the per-stage summary (DAG, shuffle
// sizes, processing rates, task skew), optionally converts the job into a
// JSON job spec for cmd/delaystage, and can emit the DAG as Graphviz DOT.
//
// Usage:
//
//	sparklog -f app.log
//	sparklog -f app.log -spec job.json -dot job.dot
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"delaystage/internal/cli"
	"delaystage/internal/cluster"
	"delaystage/internal/eventlog"
	"delaystage/internal/jobspec"
)

func main() {
	file := flag.String("f", "", "event log file (default: stdin)")
	specOut := flag.String("spec", "", "write the derived job spec JSON here")
	dotOut := flag.String("dot", "", "write the DAG as Graphviz DOT here")
	flag.Parse()

	r, err := cli.OpenInput(*file)
	if err != nil {
		log.Fatal(err)
	}
	defer r.Close()
	l, err := eventlog.Parse(r)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("application %q — %d stages\n\n", l.AppName, len(l.Stages))
	fmt.Printf("%6s %-28s %8s %10s %12s %12s %8s %7s\n",
		"stage", "name", "tasks", "wall (s)", "read (MB)", "write (MB)", "R_k MB/s", "skew")
	for _, st := range l.Stages {
		rate := 0.0
		if st.ExecutorRunTimeMs > 0 {
			rate = float64(st.ReadBytes()) / (float64(st.ExecutorRunTimeMs) / 1000) / cluster.MB
		}
		name := st.Name
		if len(name) > 28 {
			name = name[:25] + "..."
		}
		fmt.Printf("%6d %-28s %8d %10.1f %12.1f %12.1f %8.1f %7.2f\n",
			st.ID, name, st.NumTasks, st.Duration(),
			float64(st.ReadBytes())/cluster.MB, float64(st.WriteBytes())/cluster.MB,
			rate, st.Skew())
	}

	// Materialize against a nominal cluster; quantities come from the log.
	ref := cluster.NewM4LargeCluster(30)
	job, err := l.Job(ref)
	if err != nil {
		log.Fatal(err)
	}
	if *specOut != "" {
		f, err := os.Create(*specOut)
		if err != nil {
			log.Fatal(err)
		}
		if err := jobspec.FromJob(job).Write(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\njob spec written to %s\n", *specOut)
	}
	if *dotOut != "" {
		dot, err := jobspec.DOT(job, nil)
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*dotOut, []byte(dot), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("DAG written to %s\n", *dotOut)
	}
}
