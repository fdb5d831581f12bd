package sim

import (
	"maps"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"delaystage/internal/cluster"
	"delaystage/internal/dag"
	"delaystage/internal/faults"
	"delaystage/internal/workload"
)

// uniformLinks is an n-node link matrix of equal links of bandwidth bw.
func uniformLinks(n int, bw float64) [][]float64 {
	links := make([][]float64, n)
	for i := range links {
		links[i] = make([]float64, n)
		for j := range links[i] {
			if i != j {
				links[i][j] = bw
			}
		}
	}
	return links
}

// randomPlacement puts every stage of the job on a random one of n nodes.
func randomPlacement(job *workload.Job, n int, rng *rand.Rand) map[dag.StageID]int {
	p := make(map[dag.StageID]int, job.Graph.Len())
	for _, id := range job.Graph.StagesView() {
		p[id] = rng.Intn(n)
	}
	return p
}

// placedWorld is a run of job spread at random over c's nodes, joined by
// links a quarter as fast as a NIC, with every usage series tracked.
func placedWorld(c *cluster.Cluster, job *workload.Job, rng *rand.Rand) (Options, []JobRun) {
	n := len(c.Nodes)
	opt := Options{Cluster: c, TrackNode: 0, TrackOccupancy: true, TrackCluster: true,
		Links: uniformLinks(n, c.Nodes[0].NetBW/4)}
	delays := randomDelays(job, rng)
	return opt, []JobRun{{Job: job, Delays: delays, Placement: randomPlacement(job, n, rng)}}
}

// everyJob is the paper jobs, ALS and the gallery, in name order.
func everyJob(c *cluster.Cluster, scale float64) []*workload.Job {
	jobs := galleryJobs(c, scale)
	g := workload.Gallery(c, scale)
	names := make([]string, 0, len(g))
	for n := range g {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		jobs = append(jobs, g[n])
	}
	return jobs
}

// TestPlacedOneNodeIsSameModel: on a one-node cluster a stage's one
// partition already runs on node 0, so placing every stage there must
// change nothing — timelines, tracked series, integrals and event count.
func TestPlacedOneNodeIsSameModel(t *testing.T) {
	c := cluster.NewM4LargeCluster(1)
	rng := rand.New(rand.NewSource(5))
	opt := Options{Cluster: c, TrackNode: 0, TrackOccupancy: true, TrackCluster: true}
	for _, job := range everyJob(c, 0.3) {
		delays := randomDelays(job, rng)
		want, err := Run(opt, []JobRun{{Job: job, Delays: delays}})
		if err != nil {
			t.Fatal(err)
		}
		place := make(map[dag.StageID]int, job.Graph.Len())
		for _, id := range job.Graph.StagesView() {
			place[id] = 0
		}
		got, err := Run(opt, []JobRun{{Job: job, Delays: delays, Placement: place}})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s: placed on node 0 differs from the unplaced run (makespan %v vs %v, events %d vs %d)",
				job.Name, got.Makespan, want.Makespan, got.Events, want.Events)
		}
	}
}

// A cross-node read crosses the link, not the NIC: on a two-stage chain
// split over two nodes the child's read takes its input over the link
// bandwidth, and keeping both stages on one node takes it over the NIC.
func TestPlacedReadOverLink(t *testing.T) {
	c := ref(2)
	job := chainJob(ref(1), 10, 20, 5, 0)
	link := c.Nodes[0].NetBW / 5
	opt := Options{Cluster: c, TrackNode: -1, Links: uniformLinks(2, link)}
	in := float64(job.Profiles[2].ShuffleIn)
	for _, tc := range []struct {
		node int
		bw   float64
	}{{1, link}, {0, c.Nodes[0].NetBW}} {
		res := mustRun(t, opt, []JobRun{{Job: job, Placement: map[dag.StageID]int{1: 0, 2: tc.node}}})
		tl := res.Timeline(0, 2)
		approx(t, "read", tl.ReadEnd-tl.Start, in/tc.bw, 1e-6)
	}
}

// TestPlacedValidation: each way a placement cannot run is its own error,
// both when the world is built and when the run is injected into it.
func TestPlacedValidation(t *testing.T) {
	c := ref(2)
	job := chainJob(ref(1), 1, 1, 1, 0)
	links := uniformLinks(2, c.Nodes[0].NetBW)
	split := map[dag.StageID]int{1: 0, 2: 1}
	inj, err := faults.NewInjector(faults.FaultPlan{Seed: 1, TaskFailureProb: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		opt     Options
		place   map[dag.StageID]int
		wantErr string
	}{
		{"missing stage", Options{Cluster: c, Links: links}, map[dag.StageID]int{1: 0}, "stage 2 has no placement"},
		{"node out of range", Options{Cluster: c, Links: links}, map[dag.StageID]int{1: 0, 2: 2}, "placed on node 2 of a 2-node cluster"},
		{"negative node", Options{Cluster: c, Links: links}, map[dag.StageID]int{1: -1, 2: 0}, "placed on node -1 of a 2-node cluster"},
		{"no links", Options{Cluster: c}, split, "which no link connects"},
		{"zero link", Options{Cluster: c, Links: uniformLinks(2, 0)}, split, "which no link connects"},
		{"AggShuffle", Options{Cluster: c, Links: links, AggShuffle: true}, split, "AggShuffle is not supported"},
		{"Faults", Options{Cluster: c, Links: links, Faults: inj}, split, "Faults are not supported"},
		{"Speculation", Options{Cluster: c, Links: links, Speculation: true}, split, "Speculation is not supported"},
		{"BlacklistAfter", Options{Cluster: c, Links: links, BlacklistAfter: 2}, split, "BlacklistAfter is not supported"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.opt.TrackNode = -1
			run := JobRun{Job: job, Placement: tc.place}
			if _, err := Run(tc.opt, []JobRun{run}); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Run = %v, want an error containing %q", err, tc.wantErr)
			}
			s, err := NewStepper(tc.opt, []JobRun{{Job: job}})
			if err != nil {
				t.Fatal(err)
			}
			run.Arrival = 10
			if err := s.Inject(run); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Inject = %v, want an error containing %q", err, tc.wantErr)
			}
		})
	}
	for _, bad := range [][][]float64{
		{{0, 1}},
		{{0, 1}, {1}},
		{{0, math.NaN()}, {1, 0}},
		{{0, -1}, {1, 0}},
		{{0, math.Inf(1)}, {1, 0}},
	} {
		if _, err := Run(Options{Cluster: c, TrackNode: -1, Links: bad}, []JobRun{{Job: job}}); err == nil || !strings.Contains(err.Error(), "link") {
			t.Errorf("links %v: Run = %v, want a links error", bad, err)
		}
	}
}

// TestPlacedFork: a placed world paused with AdvanceBefore and then
// forked steps on to exactly the uninterrupted run; and a fork that
// revises a held-back stage's delay matches a from-scratch run with that
// delay.
func TestPlacedFork(t *testing.T) {
	c := ref(3)
	rng := rand.New(rand.NewSource(23))
	for _, job := range everyJob(c, 0.3) {
		opt, runs := placedWorld(c, job, rng)
		base, err := Run(opt, runs)
		if err != nil {
			t.Fatalf("%s: %v", job.Name, err)
		}
		for _, at := range []float64{0, base.Makespan * 0.4, base.Makespan * 0.8} {
			requireIdentical(t, job.Name+" fork", base, forkOut(t, pausedAt(t, opt, runs, at), nil))
		}

		// Hold the last stage back, fork just before it becomes ready with
		// its delay revised to 0, and compare with a run without the hold.
		ids := job.Graph.Stages()
		kid := ids[len(ids)-1]
		want := runs[0]
		want.Delays = maps.Clone(runs[0].Delays)
		want.Delays[kid] = 0
		wantRes, err := Run(opt, []JobRun{want})
		if err != nil {
			t.Fatal(err)
		}
		held := want
		held.Delays = maps.Clone(want.Delays)
		held.Delays[kid] = 30
		s := pausedAt(t, opt, []JobRun{held}, wantRes.Timeline(0, kid).Ready)
		requireIdentical(t, job.Name+" revised fork", wantRes, forkOut(t, s, []DelayUpdate{{Job: 0, Stage: kid, Delay: 0}}))
	}
}
