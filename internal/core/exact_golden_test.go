package core

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"delaystage/internal/cluster"
	"delaystage/internal/sim"
	"delaystage/internal/trace"
	"delaystage/internal/workload"
)

const exactGoldenPath = "testdata/exact_schedules.golden"

// exactGoldenCases enumerates the exact-mode (what-if simulation) golden
// configurations: the paper and gallery jobs on raw 15- and 30-node
// m4.large clusters under default options, plus 200 seeded trace DAGs
// planned the way cmd/replay plans them — Descending order on the job's
// own coarsened two-machine slice, MaxCandidates 10 (6 above 60 stages).
func exactGoldenCases(t *testing.T) []goldenCase {
	t.Helper()
	var out []goldenCase
	for _, n := range []int{15, 30} {
		c := cluster.NewM4LargeCluster(n)
		jobs := workload.PaperWorkloads(c, 1)
		jobs["ALS"] = workload.ALS(c, 1)
		for name, j := range workload.Gallery(c, 1) {
			jobs[name] = j
		}
		names := make([]string, 0, len(jobs))
		for name := range jobs {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			out = append(out, goldenCase{fmt.Sprintf("m4x%d/%s", n, name), Options{Cluster: c}, jobs[name]})
		}
	}
	tr := trace.Generate(trace.GenConfig{Jobs: 200, Seed: 14})
	rng := rand.New(rand.NewSource(14))
	for i := range tr.Jobs {
		slice := sim.Coarsen(cluster.NewTraceCluster(2, 4, rng))
		wl, err := tr.Jobs[i].Workload(slice, trace.DefaultSplit, nil)
		if err != nil {
			t.Fatalf("trace job %d: %v", i, err)
		}
		mc := 10
		if wl.Graph.Len() > 60 {
			mc = 6
		}
		out = append(out, goldenCase{fmt.Sprintf("trace/%03d-n%d", i, wl.Graph.Len()),
			Options{Cluster: slice, Order: Descending, MaxCandidates: mc}, wl})
	}
	return out
}

// exactScheduleLine renders everything an exact-mode schedule carries
// that a bit change in the simulator could move: the delays, makespan and
// stock makespan as float bits, and the evaluation and pruning counters.
func exactScheduleLine(s *Schedule) string {
	var b strings.Builder
	b.WriteString(scheduleBits(s))
	fmt.Fprintf(&b, " evals=%d hits=%d forked=%d full=%d bounded=%d pruned=%d exact=%d approx=%d",
		s.Evaluations, s.CacheHits, s.ForkedEvals, s.FullEvals,
		s.Prune.Bounded, s.Prune.Pruned, s.Prune.Exact, s.Prune.Approx)
	return b.String()
}

// TestExactScheduleGolden pins exact-mode planning bit for bit against a
// golden generated before the engine's memory layout changed: every
// delay, makespan and evaluation counter must match testdata/ exactly,
// sequentially and with a parallel scan. The cache-on/off and two-tier
// tests compare two runs of the same engine and so cannot see a bit
// change both runs share; this golden can. Run with -update to
// regenerate after an intended simulator change.
func TestExactScheduleGolden(t *testing.T) {
	cases := exactGoldenCases(t)
	if *updateGolden {
		var b strings.Builder
		for _, tc := range cases {
			fmt.Fprintf(&b, "%s %s\n", tc.name, exactScheduleLine(computeOK(t, tc.opt, tc.job)))
		}
		if err := os.MkdirAll(filepath.Dir(exactGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(exactGoldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	golden := readGolden(t, exactGoldenPath)
	if len(golden) != len(cases) {
		t.Fatalf("golden has %d configurations, want %d", len(golden), len(cases))
	}
	for _, tc := range cases {
		want, ok := golden[tc.name]
		if !ok {
			t.Fatalf("%s: missing from golden", tc.name)
		}
		for _, par := range []int{0, 4} {
			opt := tc.opt
			opt.Parallelism = par
			if got := exactScheduleLine(computeOK(t, opt, tc.job)); got != want {
				t.Errorf("%s par=%d:\n got %s\nwant %s", tc.name, par, got, want)
			}
		}
	}
}
