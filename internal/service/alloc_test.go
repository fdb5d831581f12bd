package service

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"testing"

	"delaystage/internal/cluster"
	"delaystage/internal/workload"
)

// raceEnabled is set under -race, where sync.Pool drops pooled engines
// at random.
var raceEnabled bool

// TestSubmitAllocBudget bounds the allocations of one POST /v1/jobs on the
// template-cache path, through Handler(): decode, admission, a cache hit,
// the data-plane injection and the status response. The submissions are
// 1,000 simulated seconds apart, so each one drains the previous busy
// period and opens a new epoch. A POST costs about 119 allocations and
// 14.2 KB (Go 1.24); the budgets leave ~17% headroom on the count and
// ~26% on the bytes. A drained world dropped without Stepper.Close, so
// that every epoch builds its engine from scratch (about 149 allocations
// and 24.0 KB), fails both; so does a span tree built and kept for every
// finished job (about 176 allocations and 20.7 KB). Like core's budgets
// it is not checked under -race, where sync.Pool drops a random share of
// the pooled engines.
func TestSubmitAllocBudget(t *testing.T) {
	const budget, bytesBudget = 140, 18_000
	if raceEnabled {
		t.Skip("sync.Pool drops engines under -race")
	}
	const gap, posts = 1000.0, 64
	c := cluster.NewM4LargeCluster(10)
	job := workload.CosineSimilarity(c, 0.15)
	s := newTestService(t, Options{Cluster: c})
	h := s.Handler()
	post := func(raw []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(raw)))
		if rec.Code != http.StatusOK {
			t.Fatalf("POST /v1/jobs: %d %s", rec.Code, rec.Body)
		}
	}
	// The cold plan stores the template; every later POST hits it.
	post(submitBodyFor(t, job, "t", 0))
	// testing.AllocsPerRun calls its function once more than asked, and
	// bytesPerRun takes as many again.
	bodies := make([][]byte, 2*posts+1)
	for k := range bodies {
		bodies[k] = submitBodyFor(t, job, "t", float64(k+1)*gap)
	}
	next := 0
	submit := func() {
		post(bodies[next])
		next++
	}
	allocs := testing.AllocsPerRun(posts, submit)
	// On one P with the collector off, sync.Pool hands every engine back,
	// so the bytes depend neither on when collections run nor on which P
	// the goroutine lands on.
	procs, gc := runtime.GOMAXPROCS(1), debug.SetGCPercent(-1)
	bytes := bytesPerRun(posts, submit)
	runtime.GOMAXPROCS(procs)
	debug.SetGCPercent(gc)
	if cs := s.ClusterState(); cs.Submitted != len(bodies)+1 || cs.Epoch != len(bodies) {
		t.Fatalf("not one epoch per cache-hit POST: %+v", cs)
	}
	hits := 0
	for _, st := range s.Jobs() {
		if st.CacheHit {
			hits++
		}
	}
	if hits != len(bodies) {
		t.Fatalf("%d cache hits over %d POSTs", hits, len(bodies))
	}
	t.Logf("%.0f allocations, %.0f B per cache-hit POST", allocs, bytes)
	if allocs > budget {
		t.Errorf("%.0f allocations per cache-hit POST; budget %d", allocs, budget)
	}
	if bytes > bytesBudget {
		t.Errorf("%.0f B per cache-hit POST; budget %d", bytes, bytesBudget)
	}
}

// bytesPerRun is the heap bytes allocated per call of f over runs calls.
func bytesPerRun(runs int, f func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}
