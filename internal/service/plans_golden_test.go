package service

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"delaystage/internal/cluster"
	"delaystage/internal/dag"
	"delaystage/internal/golden"
)

// busyPlanLine renders one submission's plan: its source, the committed
// delays as float bits, the audit's incumbent and chosen objective
// values as float bits, the fallback and the pruned/exact counters.
func busyPlanLine(rec *jobRecord) string {
	var b strings.Builder
	a := rec.audit
	fmt.Fprintf(&b, "%s inc=%016x chosen=%016x fallback=%q pruned=%d exact=%d", rec.planSource,
		math.Float64bits(a.IncumbentTotal), math.Float64bits(a.ChosenTotal), a.Fallback, a.Pruned, a.ExactEvals)
	ids := make([]dag.StageID, 0, len(rec.delays))
	for id := range rec.delays {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		fmt.Fprintf(&b, " %d:%016x", id, math.Float64bits(rec.delays[id]))
	}
	return b.String()
}

// forEachBusyLoad runs the gallery, Poisson and replay loads through the
// daemon, with the template cache on and off. After each submission it
// calls submitted with the run's "load/cache" name, the service and the
// submission's index in the load; once the run has drained it calls
// drained, if not nil.
func forEachBusyLoad(t *testing.T, submitted func(run string, s *Service, i int), drained func(run string, s *Service)) {
	t.Helper()
	c := cluster.NewM4LargeCluster(10)
	loads := []struct {
		name string
		load []arrival
	}{
		{"gallery", galleryLoad(c)},
		{"poisson", poissonLoad(c, 40, 0.05, 0.9/50, 7)},
		{"poisson-long", poissonLoad(c, 150, 0.05, 0.9/50, 1)},
		{"replay", replayLoad(t, c, 12, 6000)},
	}
	caches := []struct {
		name     string
		capacity int
	}{{"cache", 0}, {"nocache", -1}}
	for _, l := range loads {
		for _, cc := range caches {
			run := l.name + "/" + cc.name
			s := newTestService(t, Options{Cluster: c, FairByJob: true, MaxCandidates: 16, SlotSeconds: 1,
				CacheCapacity: cc.capacity})
			for i, a := range l.load {
				at := a.at
				if _, err := s.Submit(SubmitRequest{Tenant: "t", Job: a.job, Arrival: &at}); err != nil {
					t.Fatalf("%s job %d: %v", run, i, err)
				}
				submitted(run, s, i)
			}
			if err := s.Drain(); err != nil {
				t.Fatal(err)
			}
			if drained != nil {
				drained(run, s)
			}
		}
	}
}

// busyPlanLines runs the forEachBusyLoad loads and returns one
// "load/cache/index line" entry per submission plus the number of cold
// planner decisions made while other jobs were live.
func busyPlanLines(t *testing.T) ([]string, int) {
	t.Helper()
	var out []string
	busyCold := 0
	forEachBusyLoad(t, func(run string, s *Service, i int) {
		rec := s.history[len(s.history)-1]
		if rec.planSource == "planner" && rec.queueDepth > 0 {
			busyCold++
		}
		out = append(out, fmt.Sprintf("%s/%02d %s", run, i, busyPlanLine(rec)))
	}, nil)
	return out, busyCold
}

// TestBusyPlansGolden pins the daemon's plans bit for bit: every
// submission's source, delays, objective values, fallback and counters
// under the gallery, both Poisson and the replay loads, with and without
// the template cache, must match testdata/ exactly. Run with -update to
// regenerate after an intended planner change.
func TestBusyPlansGolden(t *testing.T) {
	lines, busyCold := busyPlanLines(t)
	t.Logf("%d submissions, %d cold plans in a busy world", len(lines), busyCold)
	if busyCold < 100 {
		t.Fatalf("vacuous: only %d cold plans landed in a busy world", busyCold)
	}
	golden.Check(t, "testdata/busy_plans.golden", []byte(strings.Join(lines, "\n")+"\n"))
}
