package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"testing"

	"delaystage/internal/cluster"
	"delaystage/internal/jobspec"
	"delaystage/internal/workload"
)

// raceEnabled is set under -race, where sync.Pool drops pooled engines
// at random.
var raceEnabled bool

// TestSubmitAllocBudget bounds the allocations of one POST /v1/jobs on the
// template-cache path, through Handler(): decode, admission, a cache hit,
// the data-plane injection and the status response. The submissions are
// 1,000 simulated seconds apart, so each one drains the previous busy
// period and opens a new epoch. Their job values are byte-equal, so every
// measured POST also reuses the interned spec instead of decoding and
// building its job. A POST costs about 45 allocations and 9.0 KB (Go
// 1.24); the budgets leave ~17% headroom on the count and ~26% on the
// bytes. A drained world dropped without Stepper.Close, so that every
// epoch builds its engine from scratch (about 77 allocations and 18.4
// KB), fails both; so does a span tree built and kept for every finished
// job (about 99 allocations and 15.3 KB). Like core's budgets it is not
// checked under -race, where sync.Pool drops a random share of the pooled
// engines.
func TestSubmitAllocBudget(t *testing.T) {
	const budget, bytesBudget = 53, 11_300
	allocs, bytes := submitAllocs(t, false)
	if allocs > budget {
		t.Errorf("%.0f allocations per cache-hit POST; budget %d", allocs, budget)
	}
	if bytes > bytesBudget {
		t.Errorf("%.0f B per cache-hit POST; budget %d", bytes, bytesBudget)
	}
}

// TestSubmitAllocBudgetDistinct is TestSubmitAllocBudget on a stream of
// specs that never recur, as each POST names its job anew: every POST
// decodes and builds its job, records a first sighting and then hits the
// template cache, whose fingerprint leaves names out. A POST costs about
// 92 allocations and 12.9 KB (Go 1.24); the budgets keep the same
// headroom, and both mutants above fail both of them too (about 124
// allocations and 22.4 KB, and 146 and 19.3 KB).
func TestSubmitAllocBudgetDistinct(t *testing.T) {
	const budget, bytesBudget = 108, 16_300
	allocs, bytes := submitAllocs(t, true)
	if allocs > budget {
		t.Errorf("%.0f allocations per distinct-spec POST; budget %d", allocs, budget)
	}
	if bytes > bytesBudget {
		t.Errorf("%.0f B per distinct-spec POST; budget %d", bytes, bytesBudget)
	}
}

// submitAllocs returns the allocations and heap bytes of one cache-hit
// POST, whose job is the same spec every time or, if distinct, a spec of
// a name of its own.
func submitAllocs(t *testing.T, distinct bool) (allocs, heap float64) {
	t.Helper()
	if raceEnabled {
		t.Skip("sync.Pool drops engines under -race")
	}
	const gap, posts = 1000.0, 64
	c := cluster.NewM4LargeCluster(10)
	job := workload.CosineSimilarity(c, 0.15)
	s := newTestService(t, Options{Cluster: c})
	h := s.Handler()
	body := func(k int) []byte {
		spec := jobspec.FromJob(job)
		if distinct {
			spec.Name = fmt.Sprintf("%s-%d", spec.Name, k)
		}
		raw, err := json.Marshal(map[string]any{"tenant": "t", "arrival": float64(k) * gap, "job": spec})
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	post := func(raw []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(raw)))
		if rec.Code != http.StatusOK {
			t.Fatalf("POST /v1/jobs: %d %s", rec.Code, rec.Body)
		}
	}
	// The cold plan stores the template; every later POST hits it.
	post(body(0))
	// testing.AllocsPerRun calls its function once more than asked, and
	// bytesPerRun takes as many again. The first of these calls is a
	// recurring spec's second sighting, which interns it.
	bodies := make([][]byte, 2*posts+1)
	for k := range bodies {
		bodies[k] = body(k + 1)
	}
	next := 0
	submit := func() {
		post(bodies[next])
		next++
	}
	allocs = testing.AllocsPerRun(posts, submit)
	// On one P with the collector off, sync.Pool hands every engine back,
	// so the bytes depend neither on when collections run nor on which P
	// the goroutine lands on.
	procs, gc := runtime.GOMAXPROCS(1), debug.SetGCPercent(-1)
	heap = bytesPerRun(posts, submit)
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
	wantReuse := len(bodies) - 1
	if distinct {
		wantReuse = 0
	}
	if v := metricValue(t, s, `schedd_spec_intern_total{result="hit"}`); v != fmt.Sprint(wantReuse) {
		t.Fatalf("%s interned specs reused over %d POSTs, want %d", v, len(bodies), wantReuse)
	}
	t.Logf("%.0f allocations, %.0f B per cache-hit POST", allocs, heap)
	return allocs, heap
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
