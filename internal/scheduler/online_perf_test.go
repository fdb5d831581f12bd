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
// cache hits, planned elsewhere) and the newcomer's delay sweep priced on
// forks of the committed world. It measured about 675 allocations and
// 84 KB per Add; the budgets leave ~10% and ~50% headroom. Re-simulating
// the committed runs from t = 0 for every candidate took about 1,020
// allocations and 380 KB.
func TestOnlineAddAllocBudget(t *testing.T) {
	const budget, bytesBudget = 750, 128 << 10
	if raceEnabled {
		t.Skip("sync.Pool drops engines under -race")
	}
	c := cluster.NewM4LargeCluster(10)
	jobs, arrivals := onlineFixture(c, 4, 11)
	opt := OnlineOptions{Cluster: c, FairByJob: true, MaxCandidates: 10}
	add := func() {
		p, err := NewOnlinePlanner(opt)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if _, err := p.Commit(jobs[i], arrivals[i], nil); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := p.Add(jobs[3], arrivals[3]); err != nil {
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
