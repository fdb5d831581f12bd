package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"delaystage/internal/cluster"
	"delaystage/internal/core"
	"delaystage/internal/dag"
	"delaystage/internal/jobspec"
	"delaystage/internal/scheduler"
	"delaystage/internal/workload"
)

// fixedClock freezes wall time so virtualNow is fully driven by arrivals.
func fixedClock() func() time.Time {
	t0 := time.Unix(1700000000, 0)
	return func() time.Time { return t0 }
}

func newTestService(t testing.TB, opt Options) *Service {
	t.Helper()
	if opt.Cluster == nil {
		opt.Cluster = cluster.NewM4LargeCluster(10)
	}
	if opt.Clock == nil {
		opt.Clock = fixedClock()
	}
	s, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func submitBodyFor(t testing.TB, job *workload.Job, tenant string, arrival float64) []byte {
	t.Helper()
	spec := jobspec.FromJob(job)
	raw, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(map[string]any{
		"tenant":  tenant,
		"arrival": arrival,
		"job":     json.RawMessage(raw),
	})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// The headline round-trip: submit over HTTP, read the plan, poll status,
// scrape metrics — every endpoint of the daemon API in one flow.
func TestServiceHTTPRoundTrip(t *testing.T) {
	c := cluster.NewM4LargeCluster(10)
	s := newTestService(t, Options{Cluster: c})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	job := workload.CosineSimilarity(c, 0.15)
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json",
		bytes.NewReader(submitBodyFor(t, job, "acme", 0)))
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: %d (%+v)", resp.StatusCode, st)
	}
	if st.ID == "" || st.State == StateRejected {
		t.Fatalf("submit status %+v", st)
	}

	resp, err = http.Get(srv.URL + "/v1/plan/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	var plan PlanStatus
	if err := json.NewDecoder(resp.Body).Decode(&plan); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("plan: %d", resp.StatusCode)
	}
	if plan.Source != "planner" || plan.CacheHit {
		t.Fatalf("first submission should be a cold plan, got %+v", plan)
	}

	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(srv.URL + "/v1/jobs/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.State != StateDone || st.JCT <= 0 {
		t.Fatalf("after drain: %+v", st)
	}

	resp, err = http.Get(srv.URL + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	var cs ClusterState
	if err := json.NewDecoder(resp.Body).Decode(&cs); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if cs.Done != 1 || cs.Live != 0 || cs.Epoch != 1 {
		t.Fatalf("cluster state after drain: %+v", cs)
	}

	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	text := buf.String()
	for _, want := range []string{
		"schedd_jobs_submitted_total 1",
		"schedd_plan_cache_misses_total 1",
		"schedd_plan_cache_hits_total 0",
		"schedd_job_jct_seconds_count 1",
		"schedd_http_requests_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// Unknown IDs are 404, not 500.
	resp, err = http.Get(srv.URL + "/v1/jobs/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: %d", resp.StatusCode)
	}
}

// Admission bounces surface as 429 with the policy's reason, and the job
// is queryable in its rejected state.
func TestServiceAdmissionRejection(t *testing.T) {
	c := cluster.NewM4LargeCluster(10)
	s := newTestService(t, Options{Cluster: c, Admission: QueueDepthCap{Max: 1}})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	job := workload.CosineSimilarity(c, 0.15)
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json",
		bytes.NewReader(submitBodyFor(t, job, "acme", 0)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first submit: %d", resp.StatusCode)
	}
	// Second arrival lands while the first is live: over the cap.
	resp, err = http.Post(srv.URL+"/v1/jobs", "application/json",
		bytes.NewReader(submitBodyFor(t, job, "acme", 1)))
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-cap submit: %d", resp.StatusCode)
	}
	if st.State != StateRejected || st.Reason == "" {
		t.Fatalf("rejected status %+v", st)
	}
	// The rejected job never reached planning: no plan to serve.
	resp, err = http.Get(srv.URL + "/v1/plan/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("plan of rejected job: %d", resp.StatusCode)
	}
}

// Malformed submissions — bad JSON, and the planner's NaN arrival vetting
// reached through the service path — are 400s.
func TestServiceSubmitValidation(t *testing.T) {
	s := newTestService(t, Options{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"job": {"name":"x","stages":[]}}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty stages: %d", resp.StatusCode)
	}

	// NaN cannot travel JSON, but in-process drivers can pass it; the
	// service must reject it with the planner's typed error.
	c := s.opt.Cluster
	bad := math.NaN()
	if _, err := s.Submit(SubmitRequest{Job: workload.LDA(c, 0.1), Arrival: &bad}); err == nil {
		t.Fatal("NaN arrival accepted by Submit")
	} else if _, ok := err.(*scheduler.InvalidArrivalError); !ok {
		t.Fatalf("got %T (%v), want *scheduler.InvalidArrivalError", err, err)
	}
}

// A cache hit must hand back exactly the delay vector a cold PlanOnline
// run would choose — the acceptance criterion for template reuse.
func TestTemplateCacheByteIdentical(t *testing.T) {
	c := cluster.NewM4LargeCluster(10)
	s := newTestService(t, Options{Cluster: c})
	job := workload.CosineSimilarity(c, 0.15)

	first, err := s.Submit(SubmitRequest{Job: job, Arrival: ptr(0.0)})
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheHit {
		t.Fatal("first submission hit an empty cache")
	}
	// Same spec again while the first is still live: fingerprints match,
	// the drift test passes, Alg. 1 is skipped.
	second, err := s.Submit(SubmitRequest{Job: job, Arrival: ptr(5.0)})
	if err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit || second.PlanSource != "template-cache" {
		t.Fatalf("second submission should hit the cache: %+v", second)
	}

	cold, err := scheduler.PlanOnline(scheduler.OnlineOptions{Cluster: c},
		[]*workload.Job{job}, []float64{0})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{}
	for id, d := range cold[0].Delays {
		want[strconv.Itoa(int(id))] = d
	}
	plan, ok := s.Plan(second.ID)
	if !ok {
		t.Fatal("no plan for cache-hit job")
	}
	if !reflect.DeepEqual(plan.Delays, want) {
		t.Fatalf("cache hit diverged from cold plan:\n%v\nvs\n%v", plan.Delays, want)
	}
	if len(want) == 0 {
		t.Fatal("test is vacuous: cold plan chose no delays")
	}
}

// A poisoned template (prediction far from reality) must fail the drift
// test, fall back to cold planning, and be evicted.
func TestTemplateDriftInvalidation(t *testing.T) {
	c := cluster.NewM4LargeCluster(10)
	s := newTestService(t, Options{Cluster: c})
	job := workload.CosineSimilarity(c, 0.15)
	fp := Fingerprint(job)
	// A template predicting every stage ends at t=1 is hopeless for a
	// multi-hundred-second job.
	bogus := &template{fp: fp, predEnd: make([]float64, job.Graph.Len())}
	for r := range bogus.predEnd {
		bogus.predEnd[r] = 1
	}
	s.cache.put(bogus)

	st, err := s.Submit(SubmitRequest{Job: job, Arrival: ptr(0.0)})
	if err != nil {
		t.Fatal(err)
	}
	if st.CacheHit || st.PlanSource != "planner" {
		t.Fatalf("poisoned template was reused: %+v", st)
	}
	if got := s.cache.get(fp); got == bogus {
		t.Fatal("poisoned template survived invalidation")
	}
	if got := s.cache.get(fp); got == nil {
		t.Fatal("replacement template not stored after cold plan")
	}
}

// TestDriftMemoMatchesDriftCheck: plan skips the drift check only for a
// hit by the template's source job, and only where the check would pass.
// For each of the eight recurring shapes, the source job, a copy with
// every stage ID renamed and a copy with one profile field one ulp off
// get the same verdict from the memoized check as from driftValid alone,
// at a tiny and at the default tolerance, with exact and with analytic
// planning; only the source job is recognised as the source.
func TestDriftMemoMatchesDriftCheck(t *testing.T) {
	c := cluster.NewM4LargeCluster(10)
	shapes := workload.Gallery(c, 0.02)
	for name, job := range workload.PaperWorkloads(c, 0.02) {
		shapes[name] = job
	}
	shapes["ALS"] = workload.ALS(c, 0.02)
	names := make([]string, 0, len(shapes))
	for name := range shapes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, approx := range []bool{false, true} {
		for _, tol := range []float64{1e-12, 0} { // 0 = the default, 0.15
			s := newTestService(t, Options{Cluster: c, FairByJob: true, DriftTolerance: tol, ApproximatePlanning: approx})
			for i, name := range names {
				job := shapes[name]
				// Far apart, so each is planned solo and stored.
				if _, err := s.Submit(SubmitRequest{Job: job, Arrival: ptr(float64(i) * 1e4)}); err != nil {
					t.Fatal(err)
				}
				tmpl := s.cache.get(Fingerprint(job))
				if tmpl == nil || tmpl.source == nil {
					t.Fatalf("%s: no template with a source key stored", name)
				}
				variants := []struct {
					name   string
					job    *workload.Job
					source bool
				}{
					{"source", job, true},
					{"renamed", renamedCopy(t, job), false},
					{"one ulp", ulpCopy(t, job), false},
				}
				for _, v := range variants {
					delays := tmpl.instantiate(v.job)
					want := s.driftValid(v.job, tmpl, delays)
					isSource := s.cache.fromSource(tmpl, v.job)
					if isSource != v.source || (isSource || want) != want {
						t.Fatalf("approx=%v tol=%g %s/%s: source %v (want %v), memoized verdict %v, drift check %v",
							approx, tol, name, v.name, isSource, v.source, isSource || want, want)
					}
				}
			}
		}
	}
}

// renamedCopy returns job with every stage ID shifted by 1000, stages in
// the same order.
func renamedCopy(t *testing.T, job *workload.Job) *workload.Job {
	t.Helper()
	g := dag.New()
	profiles := map[dag.StageID]workload.StageProfile{}
	for _, id := range job.Graph.StagesView() {
		st := job.Graph.Stage(id)
		parents := make([]dag.StageID, len(st.Parents))
		for i, p := range st.Parents {
			parents[i] = p + 1000
		}
		g.MustAdd(dag.Stage{ID: id + 1000, Name: st.Name, Parents: parents})
		profiles[id+1000] = job.Profiles[id]
	}
	out := &workload.Job{Name: job.Name, Graph: g, Profiles: profiles}
	if err := out.Validate(); err != nil {
		t.Fatal(err)
	}
	return out
}

// ulpCopy returns job with its first stage's processing rate one ulp
// higher.
func ulpCopy(t *testing.T, job *workload.Job) *workload.Job {
	t.Helper()
	profiles := make(map[dag.StageID]workload.StageProfile, len(job.Profiles))
	for id, p := range job.Profiles {
		profiles[id] = p
	}
	first := job.Graph.StagesView()[0]
	p := profiles[first]
	p.ProcRate = math.Nextafter(p.ProcRate, math.Inf(1))
	profiles[first] = p
	out := &workload.Job{Name: job.Name, Graph: job.Graph, Profiles: profiles}
	if err := out.Validate(); err != nil {
		t.Fatal(err)
	}
	return out
}

// Queue-length-aware revision: past the configured depth, jobs dispatch
// submit-when-ready without a planning sweep.
func TestServiceQueueRevision(t *testing.T) {
	c := cluster.NewM4LargeCluster(10)
	s := newTestService(t, Options{Cluster: c, ReviseQueueDepth: 2, CacheCapacity: -1})
	job := workload.CosineSimilarity(c, 0.15)
	for i := 0; i < 2; i++ {
		st, err := s.Submit(SubmitRequest{Job: job, Arrival: ptr(float64(i))})
		if err != nil {
			t.Fatal(err)
		}
		if st.Revised {
			t.Fatalf("submission %d revised below the depth threshold", i)
		}
	}
	st, err := s.Submit(SubmitRequest{Job: job, Arrival: ptr(2.0)})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Revised || st.PlanSource != "queue-revision" {
		t.Fatalf("deep-queue submission not revised: %+v", st)
	}
	plan, ok := s.Plan(st.ID)
	if !ok || len(plan.Delays) != 0 {
		t.Fatalf("revised plan should be submit-when-ready: %+v", plan)
	}
}

// Draining rolls the busy-period epoch: planner state resets, later jobs
// start a fresh world, and the arrival watermark still cannot rewind.
func TestServiceEpochRollover(t *testing.T) {
	c := cluster.NewM4LargeCluster(10)
	s := newTestService(t, Options{Cluster: c})
	job := workload.LDA(c, 0.1)
	first, err := s.Submit(SubmitRequest{Job: job, Arrival: ptr(0.0)})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	cs := s.ClusterState()
	if cs.Epoch != 1 || cs.Live != 0 || cs.Done != 1 {
		t.Fatalf("after drain: %+v", cs)
	}
	// An arrival "before" the drained world is clamped forward, not an
	// error: time cannot rewind across epochs.
	second, err := s.Submit(SubmitRequest{Job: job, Arrival: ptr(0.0)})
	if err != nil {
		t.Fatal(err)
	}
	if second.Arrival < first.Arrival {
		t.Fatalf("arrival rewound across epochs: %v after %v", second.Arrival, first.Arrival)
	}
	if second.Epoch != 1 {
		t.Fatalf("second job in epoch %d, want 1", second.Epoch)
	}
}

// Fingerprints must be invariant to stage-ID renaming (templates transfer
// across recurring submissions with different ID assignments) and
// sensitive to profile changes beyond the quantization grid.
func TestFingerprintInvariance(t *testing.T) {
	build := func(base int, rate float64) *workload.Job {
		g := dag.New()
		g.MustAdd(dag.Stage{ID: dag.StageID(base)})
		g.MustAdd(dag.Stage{ID: dag.StageID(base + 1), Parents: []dag.StageID{dag.StageID(base)}})
		prof := workload.StageProfile{ShuffleIn: 1 << 30, ShuffleOut: 1 << 28, ProcRate: rate}
		job := &workload.Job{
			Name:  fmt.Sprintf("fp-%d", base),
			Graph: g,
			Profiles: map[dag.StageID]workload.StageProfile{
				dag.StageID(base):     prof,
				dag.StageID(base + 1): prof,
			},
		}
		if err := job.Validate(); err != nil {
			t.Fatal(err)
		}
		return job
	}
	a, b := build(0, 1e8), build(100, 1e8)
	if Fingerprint(a) != Fingerprint(b) {
		t.Fatal("fingerprint not invariant to stage-ID renaming")
	}
	if Fingerprint(a) == Fingerprint(build(0, 3e8)) {
		t.Fatal("fingerprint blind to a 3× processing-rate change")
	}
}

func ptr(v float64) *float64 { return &v }

// TestPlanAuditPruneFields: a cold planner decision must carry the
// two-tier scan counters in its trace audit, bump every planning-work
// counter on /metrics by its plan audit field (the prune/exact-eval and
// cut-drain ones by a non-zero count), and surface the outcome in the
// planned timeline milestone.
func TestPlanAuditPruneFields(t *testing.T) {
	s := newTestService(t, Options{})
	c := cluster.NewM4LargeCluster(10)
	job := workload.ALS(c, 0.3)
	st, err := s.Submit(SubmitRequest{Job: job, Arrival: ptr(0.0)})
	if err != nil {
		t.Fatal(err)
	}
	tr, ok := s.Trace(st.ID)
	if !ok {
		t.Fatal("trace missing")
	}
	var found bool
	for _, sp := range tr.Spans {
		if sp.Audit == nil {
			continue
		}
		found = true
		a := sp.Audit
		if a.Source != "planner" {
			t.Fatalf("source = %q", a.Source)
		}
		if a.ExactEvals != a.Evaluations || a.ExactEvals == 0 {
			t.Fatalf("exact_evals %d must equal evaluations %d", a.ExactEvals, a.Evaluations)
		}
		if a.Bounded == 0 || a.Pruned == 0 {
			t.Fatalf("bound tier idle on a cold sweep: %+v", a)
		}
		if a.ApproxEvals != 0 {
			t.Fatalf("approx_evals %d in exact mode", a.ApproxEvals)
		}
	}
	if !found {
		t.Fatal("no plan audit in trace")
	}
	var buf bytes.Buffer
	if err := s.Registry().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	metric := func(name string) string {
		for _, line := range strings.Split(buf.String(), "\n") {
			if v, ok := strings.CutPrefix(line, name+" "); ok {
				return v
			}
		}
		return ""
	}
	for _, name := range []string{"schedd_plan_pruned_total", "schedd_plan_exact_evals_total", "schedd_plan_drains_cut_total"} {
		if val := metric(name); val == "" || val == "0" {
			t.Fatalf("counter %s not bumped (got %q)\n%s", name, val, buf.String())
		}
	}
	// After one cold plan every planning-work counter is that plan's
	// PlanStats field: the schedule a twin planner plans the same solo
	// arrival from.
	twin, err := scheduler.NewOnlinePlanner(scheduler.OnlineOptions{Cluster: s.opt.Cluster})
	if err != nil {
		t.Fatal(err)
	}
	_, sched, err := twin.Add(job, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range planCounters {
		if got, want := metric(c.name), strconv.Itoa(c.field(sched.PlanStats)); got != want {
			t.Errorf("counter %s = %q, want the schedule's %s", c.name, got, want)
		}
	}
	var planned bool
	for _, ev := range s.Timeline().Events {
		if ev.Kind == "planned" {
			planned = true
			if !strings.Contains(ev.Detail, "pruned=") || !strings.Contains(ev.Detail, "exact=") {
				t.Fatalf("planned milestone lacks prune counts: %q", ev.Detail)
			}
		}
	}
	if !planned {
		t.Fatal("no planned milestone")
	}
}

// TestPlanCountersCoverPlanStats: the /metrics table reads every int
// field of core.PlanStats exactly once, so a counter added to the record
// must be added to the table.
func TestPlanCountersCoverPlanStats(t *testing.T) {
	var ps core.PlanStats
	v := reflect.ValueOf(&ps).Elem()
	want := map[int]string{}
	for _, f := range reflect.VisibleFields(v.Type()) {
		if f.Type.Kind() == reflect.Int {
			v.FieldByIndex(f.Index).SetInt(int64(len(want) + 1))
			want[len(want)+1] = f.Name
		}
	}
	for _, c := range planCounters {
		n := c.field(ps)
		if _, ok := want[n]; !ok {
			t.Errorf("%s reads no field, or one another counter reads", c.name)
		}
		delete(want, n)
	}
	if len(want) > 0 {
		t.Errorf("PlanStats fields without a counter: %v", want)
	}
}

// TestApproximatePlanningService: with ApproximatePlanning on, planning
// decisions are answered entirely by the analytic model (no exact
// evaluations anywhere, audit says so) and the template cache still
// round-trips byte-identical plans.
func TestApproximatePlanningService(t *testing.T) {
	s := newTestService(t, Options{ApproximatePlanning: true})
	c := cluster.NewM4LargeCluster(10)
	job := workload.ALS(c, 0.3)
	st, err := s.Submit(SubmitRequest{Job: job, Arrival: ptr(0.0)})
	if err != nil {
		t.Fatal(err)
	}
	tr, ok := s.Trace(st.ID)
	if !ok {
		t.Fatal("trace missing")
	}
	for _, sp := range tr.Spans {
		if sp.Audit == nil {
			continue
		}
		if sp.Audit.ExactEvals != 0 {
			t.Fatalf("approximate mode ran %d exact evaluations", sp.Audit.ExactEvals)
		}
		if sp.Audit.ApproxEvals == 0 {
			t.Fatal("approximate mode scored no candidates")
		}
	}
	// A same-fingerprint resubmission must hit the model-backed drift
	// test and reuse the cached plan.
	st2, err := s.Submit(SubmitRequest{Job: workload.ALS(c, 0.3), Arrival: ptr(5000.0)})
	if err != nil {
		t.Fatal(err)
	}
	p1, _ := s.Plan(st.ID)
	p2, ok := s.Plan(st2.ID)
	if !ok || !p2.CacheHit {
		t.Fatalf("expected a template-cache hit, got %+v", p2)
	}
	if !reflect.DeepEqual(p1.Delays, p2.Delays) {
		t.Fatalf("cached plan drifted: %v vs %v", p1.Delays, p2.Delays)
	}
}

// TestRequestCounterConcurrent: requests served at once from several
// goroutines are each counted once, under the series for their method and
// status code, with the label text the counter has always exported.
func TestRequestCounterConcurrent(t *testing.T) {
	const workers, each = 4, 25
	s := newTestService(t, Options{})
	h := s.Handler()
	reqs := []struct{ method, path, body string }{
		{http.MethodGet, "/v1/cluster", ""},
		{http.MethodGet, "/v1/jobs/nope", ""},
		{http.MethodPost, "/v1/jobs", "{"},
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				for _, r := range reqs {
					h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(r.method, r.path, strings.NewReader(r.body)))
				}
			}
		}()
	}
	wg.Wait()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	n := workers * each
	for _, want := range []string{
		fmt.Sprintf(`schedd_http_requests_total{method="GET",code="200"} %d`, n),
		fmt.Sprintf(`schedd_http_requests_total{method="GET",code="404"} %d`, n),
		fmt.Sprintf(`schedd_http_requests_total{method="POST",code="400"} %d`, n),
	} {
		if !strings.Contains(rec.Body.String(), want+"\n") {
			t.Errorf("/metrics missing %q:\n%s", want, rec.Body)
		}
	}
}
