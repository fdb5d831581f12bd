package sim

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"delaystage/internal/cluster"
	"delaystage/internal/faults"
	"delaystage/internal/golden"
)

// bits renders a float as its exact IEEE-754 bit pattern.
func bits(v float64) string { return fmt.Sprintf("%016x", math.Float64bits(v)) }

// dumpResult renders every field of a Result, floats as exact bits: the
// timelines, per-job start, end and error, the event and fault counters,
// the usage averages, the node and cluster series and the occupancy
// segments.
func dumpResult(b *strings.Builder, name string, r *Result) {
	fmt.Fprintf(b, "== %s\n", name)
	fmt.Fprintf(b, "events=%d makespan=%s retries=%d spec=%d/%d blacklisted=%d\n",
		r.Events, bits(r.Makespan), r.Retries, r.SpecWins, r.SpecLaunched, r.Blacklisted)
	fmt.Fprintf(b, "avg cpu=%s net=%s disk=%s netrate=%s\n",
		bits(r.AvgCPUUtil), bits(r.AvgNetUtil), bits(r.AvgDiskUtil), bits(r.AvgNetRate))
	for i := range r.JobEnd {
		fmt.Fprintf(b, "job %d start=%s end=%s err=%v\n", i, bits(r.JobStart[i]), bits(r.JobEnd[i]), r.JobErrors[i])
	}
	for _, tl := range r.Timelines {
		fmt.Fprintf(b, "tl %d/%d %s %s %s %s %s r=%d\n", tl.JobIndex, tl.Stage,
			bits(tl.Ready), bits(tl.Start), bits(tl.ReadEnd), bits(tl.ComputeEnd), bits(tl.End), tl.Retries)
	}
	series := func(label string, s Series) {
		if s == nil {
			return
		}
		fmt.Fprintf(b, "%s %d:", label, len(s))
		for _, p := range s {
			fmt.Fprintf(b, " %s=%s", bits(p.T), bits(p.V))
		}
		b.WriteByte('\n')
	}
	series("node.cpu", r.Node.CPUBusy)
	series("node.net", r.Node.NetRate)
	series("node.disk", r.Node.DiskRate)
	series("cluster.cpu", r.Cluster.CPUBusy)
	series("cluster.net", r.Cluster.NetRate)
	series("cluster.disk", r.Cluster.DiskRate)
	for _, seg := range r.Occupancy {
		fmt.Fprintf(b, "occ %d/%d %s %s %s\n", seg.JobIndex, seg.Stage, bits(seg.From), bits(seg.To), bits(seg.Executors))
	}
}

// resultsGolden runs every world the golden pins and renders the results:
// each gallery job, with seeded random delays, under plain sharing,
// AggShuffle, full tracking (node 0, cluster series, occupancy), three
// fault regimes with speculation and blacklisting (the tests' chaos plan,
// the CI chaos-smoke plan, and the chaos plan blacklisting a node at its
// first fault), and placed stages over links; then one world grown by
// AdvanceBefore + Inject with full tracking.
func resultsGolden(t *testing.T) string {
	t.Helper()
	c := cluster.NewM4LargeCluster(6)
	rng := rand.New(rand.NewSource(22))
	inj := chaosInjector(t)
	// ciInj is cmd/simulate's chaos-smoke fault plan (node MTTF, slow
	// machines; -fault-seed 1).
	ciInj, err := faults.NewInjector(faults.FaultPlan{Seed: 1, NodeMTTF: 900, MTTFHorizon: 250,
		SlowNodeFrac: 0.2, SlowNodeFactor: 2.5})
	if err != nil {
		t.Fatal(err)
	}
	blacklistFast := chaosOptions(c, inj)
	blacklistFast.BlacklistAfter = 1
	variants := []struct {
		name string
		opt  Options
	}{
		{"plain", Options{Cluster: c, TrackNode: -1}},
		{"aggshuffle", Options{Cluster: c, TrackNode: -1, AggShuffle: true}},
		{"tracked", Options{Cluster: c, TrackNode: 0, TrackCluster: true, TrackOccupancy: true}},
		{"chaos", chaosOptions(c, inj)},
		{"chaos-ci", Options{Cluster: c, TrackNode: -1, Faults: ciInj, Speculation: true, BlacklistAfter: 3}},
		{"chaos-blacklist", blacklistFast},
	}
	jobs := galleryJobs(c, 0.25)
	var b strings.Builder
	for _, job := range jobs {
		for _, v := range variants {
			res, err := Run(v.opt, []JobRun{{Job: job, Delays: randomDelays(job, rng)}})
			if err != nil {
				t.Fatalf("%s/%s: %v", v.name, job.Name, err)
			}
			dumpResult(&b, v.name+"/"+job.Name, res)
		}
		opt, runs := placedWorld(c, job, rng)
		res, err := Run(opt, runs)
		if err != nil {
			t.Fatalf("placed/%s: %v", job.Name, err)
		}
		dumpResult(&b, "placed/"+job.Name, res)
	}

	opt := Options{Cluster: c, TrackNode: 0, TrackCluster: true, TrackOccupancy: true}
	runs := make([]JobRun, len(jobs))
	for i, job := range jobs {
		runs[i] = JobRun{Job: job, Arrival: 25 * float64(i), Delays: randomDelays(job, rng)}
	}
	s, err := NewStepper(opt, runs[:1])
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range runs[1:] {
		if err := s.AdvanceBefore(run.Arrival); err != nil {
			t.Fatal(err)
		}
		if err := s.Inject(run); err != nil {
			t.Fatal(err)
		}
	}
	res, err := stepOut(s)
	if err != nil {
		t.Fatal(err)
	}
	dumpResult(&b, "inject/tracked", res)
	return b.String()
}

// TestResultsGolden pins the engine's whole Result bit for bit against
// testdata/results.golden: timelines, job ends, event counts, the usage
// integrals behind the averages, the node and cluster series, occupancy
// segments and the fault counters. The schedule goldens see only job
// ends, so an engine change that moves a usage integral or a series
// sample shows here alone. Run with -update to regenerate after an
// intended simulator change.
func TestResultsGolden(t *testing.T) {
	golden.Check(t, "testdata/results.golden", []byte(resultsGolden(t)))
}
