package scheduler

import (
	"runtime"
	"testing"

	"delaystage/internal/cluster"
)

// raceEnabled is set under -race, where sync.Pool drops pooled engines
// at random and allocation counts stop being reproducible.
var raceEnabled bool

// TestOnlineAddAllocBudget gates the planner's work on one exact Add into
// a 3-job busy period: a fresh planner, three committed runs (template
// cache hits, planned elsewhere) stepped in the caller's committed world
// up to the newcomer's arrival, and the newcomer's delay sweep priced on
// forks of that world. It measured about 590 allocations and 72 KB per
// Add on a 2-vCPU Xeon with Go 1.24, the same as when the planner stepped
// a committed world of its own; the budgets leave ~25% and ~75%
// headroom. Re-simulating the committed runs from t = 0 for every
// candidate took about 1,020 allocations and 380 KB.
func TestOnlineAddAllocBudget(t *testing.T) {
	const budget, bytesBudget = 750, 128 << 10
	if raceEnabled {
		t.Skip("sync.Pool drops engines under -race")
	}
	c := cluster.NewM4LargeCluster(10)
	jobs, arrivals := onlineFixture(c, 4, 11)
	opt := OnlineOptions{Cluster: c, FairByJob: true, MaxCandidates: 10}
	add := func() {
		p := newPlannerWorld(t, opt)
		for i := 0; i < 3; i++ {
			if _, err := p.commit(jobs[i], arrivals[i], nil); err != nil {
				t.Fatal(err)
			}
		}
		if _, _, err := p.add(jobs[3], arrivals[3]); err != nil {
			t.Fatal(err)
		}
	}
	add() // warm the engine pool
	allocs := testing.AllocsPerRun(3, add)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 3
	for range runs {
		add()
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("per Add into a 3-job busy period: %.0f allocations, %d B", allocs, bytes)
	if allocs > budget {
		t.Errorf("%.0f allocations per Add into a 3-job busy period; budget %d", allocs, budget)
	}
	if bytes > bytesBudget {
		t.Errorf("%d B allocated per Add into a 3-job busy period; budget %d", bytes, bytesBudget)
	}
}
