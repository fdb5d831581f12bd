package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"delaystage/internal/cluster"
	"delaystage/internal/sim"
	"delaystage/internal/trace"
	"delaystage/internal/workload"
)

// arrival is one submission of a load driver.
type arrival struct {
	job *workload.Job
	at  float64
}

// galleryLoad submits every gallery job in turn, 60 s apart: each arrives
// while earlier ones still run.
func galleryLoad(c *cluster.Cluster) []arrival {
	g := workload.Gallery(c, 0.5)
	names := make([]string, 0, len(g))
	for n := range g {
		names = append(names, n)
	}
	sort.Strings(names)
	var load []arrival
	for round := 0; round < 3; round++ {
		for _, n := range names {
			load = append(load, arrival{job: g[n], at: float64(len(load)) * 60})
		}
	}
	return load
}

// poissonLoad mirrors cmd/schedd -poisson: gallery jobs at the given
// scale and exponential gaps of mean 1/rate.
func poissonLoad(c *cluster.Cluster, n int, scale, rate float64, seed int64) []arrival {
	rng := rand.New(rand.NewSource(seed))
	g := workload.Gallery(c, scale)
	names := make([]string, 0, len(g))
	for name := range g {
		names = append(names, name)
	}
	sort.Strings(names)
	at := 0.0
	var load []arrival
	for i := 0; i < n; i++ {
		at += rng.ExpFloat64() / rate
		load = append(load, arrival{job: g[names[rng.Intn(len(names))]], at: at})
	}
	return load
}

// replayLoad mirrors cmd/schedd -replay: synthetic trace DAGs at their
// recorded arrivals, rebased to zero.
func replayLoad(t *testing.T, c *cluster.Cluster, n int, span float64) []arrival {
	t.Helper()
	tr := trace.Generate(trace.GenConfig{Jobs: n, Span: span, Seed: 3, MaxStages: 40})
	tr.SortByArrival()
	var load []arrival
	for i := range tr.Jobs {
		wl, err := tr.Jobs[i].Workload(c, trace.DefaultSplit, nil)
		if err != nil {
			t.Fatal(err)
		}
		load = append(load, arrival{job: wl, at: tr.Jobs[i].Arrival - tr.Jobs[0].Arrival})
	}
	return load
}

// runLoad submits a load to a fresh service under cmd/schedd's planning
// defaults with a frozen wall clock, calling between after every
// submission, and drains it.
func runLoad(t *testing.T, c *cluster.Cluster, load []arrival, between func(*Service)) *Service {
	t.Helper()
	s := newTestService(t, Options{Cluster: c, FairByJob: true, MaxCandidates: 16, SlotSeconds: 1})
	for _, a := range load {
		at := a.at
		if _, err := s.Submit(SubmitRequest{Tenant: "t", Job: a.job, Arrival: &at}); err != nil {
			t.Fatal(err)
		}
		between(s)
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	return s
}

// liveJCTs returns every job's JCT bits by ID.
func liveJCTs(s *Service) map[string]uint64 {
	out := map[string]uint64{}
	for _, st := range s.Jobs() {
		out[st.ID] = math.Float64bits(st.JCT)
	}
	return out
}

// requireEpochsOffline is the live-equals-offline oracle: for every
// drained epoch, sim.Run over the epoch's committed runs (in injection
// order) must reproduce each job's live JCT bit for bit, and its EvJobDone
// events must come in the order of the epoch's "done" entries in
// /v1/timeline. It returns how many of those events share their instant
// with the one before.
func requireEpochsOffline(t *testing.T, name string, s *Service, load []arrival) (ties int) {
	t.Helper()
	byEpoch := map[int][]*jobRecord{}
	jobOf := map[*jobRecord]*workload.Job{}
	for i, rec := range s.history { // submission order
		if rec.state != StateDone {
			t.Fatalf("%s: %s ended %s", name, rec.id, rec.state)
		}
		byEpoch[rec.epoch] = append(byEpoch[rec.epoch], rec)
		jobOf[rec] = load[i].job
	}
	if len(byEpoch) != s.epoch {
		t.Fatalf("%s: %d epochs hold jobs, %d drained", name, len(byEpoch), s.epoch)
	}
	tl := s.Timeline()
	if tl.Dropped > 0 {
		t.Fatalf("%s: the timeline ring dropped %d entries", name, tl.Dropped)
	}
	liveDone := map[int][]string{} // epoch → job IDs in "done" entry order
	for _, ev := range tl.Events {
		if ev.Kind == "done" {
			epoch := s.jobs[ev.Job].epoch
			liveDone[epoch] = append(liveDone[epoch], ev.Job)
		}
	}
	multi := 0
	for epoch, recs := range byEpoch {
		runs := make([]sim.JobRun, len(recs))
		for i, rec := range recs {
			runs[i] = sim.JobRun{Job: jobOf[rec], Arrival: rec.arrival, Delays: rec.delays}
		}
		ends := &jobDoneRecorder{}
		res, err := sim.Run(sim.Options{Cluster: s.coarse, TrackNode: -1, FairByJob: s.opt.FairByJob, Observer: ends}, runs)
		if err != nil {
			t.Fatal(err)
		}
		for i, rec := range recs {
			if math.Float64bits(res.JCT(i)) != math.Float64bits(rec.jct) {
				t.Fatalf("%s: epoch %d job %s: live JCT %v, offline %v", name, epoch, rec.id, rec.jct, res.JCT(i))
			}
		}
		offline := make([]string, len(ends.events))
		for i, ev := range ends.events {
			offline[i] = recs[ev.Job].id
			if i > 0 && ev.T == ends.events[i-1].T {
				ties++
			}
		}
		if !slices.Equal(liveDone[epoch], offline) {
			t.Fatalf("%s: epoch %d: live done order %v, offline EvJobDone order %v", name, epoch, liveDone[epoch], offline)
		}
		if len(recs) > 1 {
			multi++
		}
	}
	if multi == 0 {
		t.Fatalf("%s: vacuous — no epoch held more than one job", name)
	}
	return ties
}

// jobDoneRecorder keeps a run's EvJobDone events.
type jobDoneRecorder struct{ events []sim.Event }

// OnEvent implements sim.Observer.
func (r *jobDoneRecorder) OnEvent(ev sim.Event) {
	if ev.Kind == sim.EvJobDone {
		r.events = append(r.events, ev)
	}
}

// twinLoad submits each gallery job twice at one arrival, 90 s after the
// previous pair: the twin is a template-cache hit on its sibling's plan,
// so the two run in lockstep and end at one instant, in one step.
func twinLoad(c *cluster.Cluster) []arrival {
	g := workload.Gallery(c, 0.3)
	names := make([]string, 0, len(g))
	for n := range g {
		names = append(names, n)
	}
	sort.Strings(names)
	var load []arrival
	for k, n := range names {
		at := float64(k) * 90
		load = append(load, arrival{job: g[n], at: at}, arrival{job: g[n], at: at})
	}
	return load
}

// readsBetween exercises every read path that advances the data plane.
func readsBetween(s *Service) {
	if err := s.Sync(); err != nil {
		panic(err)
	}
	s.Jobs()
	s.ClusterState()
}

// TestLiveMatchesOffline: under the gallery, Poisson and replay drivers
// and a load of twin jobs, with and without reads between submissions,
// every drained epoch's live JCTs and job-done order equal sim.Run's over
// its committed runs. The twins end at one instant, so their order comes
// from the engine's step, not from their times.
func TestLiveMatchesOffline(t *testing.T) {
	c := cluster.NewM4LargeCluster(10)
	loads := map[string][]arrival{
		"gallery": galleryLoad(c),
		"poisson": poissonLoad(c, 40, 0.05, 0.9/50, 7),
		"replay":  replayLoad(t, c, 12, 6000),
		"twins":   twinLoad(c),
	}
	for name, load := range loads {
		ties := requireEpochsOffline(t, name, runLoad(t, c, load, func(*Service) {}), load)
		requireEpochsOffline(t, name+"+sync", runLoad(t, c, load, readsBetween), load)
		if name == "twins" && ties == 0 {
			t.Fatal("twins: vacuous — no two jobs ended at one instant")
		}
	}
}

// TestSyncDoesNotPerturb: reading the service (Sync, Jobs, ClusterState)
// between submissions must leave every JCT, every delay and every
// audit's objective totals bit-identical to the same submissions without
// reads — with a frozen wall clock, and with one that has moved halfway
// to the next arrival, so each read halts the live world between two
// arrivals. A read only advances the world to the present; it must not
// move the clock a later arrival is clamped to, nor change the world a
// cold plan forks.
func TestSyncDoesNotPerturb(t *testing.T) {
	c := cluster.NewM4LargeCluster(10)
	load := poissonLoad(c, 150, 0.05, 0.9/50, 1)
	plain := runLoad(t, c, load, func(*Service) {})
	submitted := 0
	midway := func(s *Service) {
		if submitted++; submitted == len(load) {
			readsBetween(s)
			return
		}
		mid := float64((load[submitted-1].at + load[submitted].at) / 2)
		s.clock = func() time.Time { return s.start.Add(time.Duration(mid * float64(time.Second))) }
		readsBetween(s)
		if s.simClock < mid-1e-6 {
			t.Fatalf("a read at %v left the clock at %v", mid, s.simClock)
		}
	}
	for name, between := range map[string]func(*Service){"frozen": readsBetween, "midway": midway} {
		synced := runLoad(t, c, load, between)
		want, got := liveJCTs(plain), liveJCTs(synced)
		differ := 0
		for id, v := range want {
			if got[id] != v {
				differ++
			}
		}
		if differ > 0 || len(want) != len(got) {
			t.Fatalf("%s: reads between submissions changed %d of %d JCTs", name, differ, len(want))
		}
		cold := 0
		for i, rec := range plain.history {
			if want, got := busyPlanLine(rec), busyPlanLine(synced.history[i]); got != want {
				t.Fatalf("%s: reads between submissions changed %s's plan:\n got %s\nwant %s", name, rec.id, got, want)
			}
			if rec.planSource == "planner" && rec.queueDepth > 0 {
				cold++
			}
		}
		if cold == 0 {
			t.Fatalf("%s: vacuous: no cold plan landed in a busy world", name)
		}
	}
}

// TestSubmitCounterConservation drives valid, bounced and invalid
// submissions — over HTTP and in process — and after each requires the
// /v1/cluster counters to conserve: submitted = admitted + rejected and
// live = admitted − done − failed, with invalid input counted nowhere.
func TestSubmitCounterConservation(t *testing.T) {
	c := cluster.NewM4LargeCluster(10)
	s := newTestService(t, Options{Cluster: c, Admission: QueueDepthCap{Max: 2}})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	job := workload.LDA(c, 0.1)
	nan, inf := math.NaN(), math.Inf(1)
	type submitCase struct {
		name      string
		body      string         // POST /v1/jobs body, or
		req       *SubmitRequest // an in-process submission
		code      int            // HTTP status (in process: 200 = no error)
		submitted int            // counter delta
	}
	cases := []submitCase{
		{"accepted", string(submitBodyFor(t, job, "a", 0)), nil, http.StatusOK, 1},
		{"accepted 2", string(submitBodyFor(t, job, "a", 1)), nil, http.StatusOK, 1},
		{"bounced", string(submitBodyFor(t, job, "a", 2)), nil, http.StatusTooManyRequests, 1},
	}
	for _, m := range malformedSubmits() {
		cases = append(cases, submitCase{m.name, m.body, nil, http.StatusBadRequest, 0})
	}
	cases = append(cases,
		submitCase{"nil job", "", &SubmitRequest{}, http.StatusBadRequest, 0},
		submitCase{"invalid job", "", &SubmitRequest{Job: &workload.Job{Name: "nograph"}}, http.StatusBadRequest, 0},
		submitCase{"NaN arrival", "", &SubmitRequest{Job: job, Arrival: &nan}, http.StatusBadRequest, 0},
		submitCase{"Inf arrival", "", &SubmitRequest{Job: job, Arrival: &inf}, http.StatusBadRequest, 0},
		submitCase{"after the queue drains", string(submitBodyFor(t, job, "a", 1e5)), nil, http.StatusOK, 1},
	)
	prev := 0
	for _, tc := range cases {
		code := http.StatusOK
		if tc.req != nil {
			if _, err := s.Submit(*tc.req); err != nil {
				code = http.StatusBadRequest
			}
		} else {
			resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			code = resp.StatusCode
		}
		if code != tc.code {
			t.Fatalf("%s: status %d, want %d", tc.name, code, tc.code)
		}
		var cs ClusterState
		_, raw := getBody(t, srv.URL+"/v1/cluster")
		if err := json.Unmarshal(raw, &cs); err != nil {
			t.Fatal(err)
		}
		if cs.Submitted-prev != tc.submitted {
			t.Fatalf("%s: submitted moved by %d, want %d", tc.name, cs.Submitted-prev, tc.submitted)
		}
		prev = cs.Submitted
		if !conserved(cs) {
			t.Fatalf("%s: counters not conserved: %+v", tc.name, cs)
		}
	}
	_, metrics := getBody(t, srv.URL+"/metrics")
	if !bytes.Contains(metrics, []byte("schedd_jobs_submitted_total 4\n")) {
		t.Fatalf("metrics disagree with the counted submissions:\n%s", metrics)
	}
}

// malformedSubmits are POST /v1/jobs bodies that must answer 400 and be
// counted nowhere.
func malformedSubmits() []struct{ name, body string } {
	return []struct{ name, body string }{
		{"bad json", `{"job":`},
		{"missing job", `{"tenant":"a"}`},
		{"null job", `{"tenant":"a","job":null}`},
		{"empty stages", `{"job":{"name":"x","stages":[]}}`},
		{"unknown field in job", `{"job":{"name":"x","stages":[{"id":0,"phases":{"read_sec":1,"compute_sec":1,"write_sec":1}}],"owner":"x"}}`},
		{"too many stages", wideJobBody(maxSubmitStages + 1)},
		{"duplicate job key", `{"job":` + oneStageJob + `,"job":` + oneStageJob + `}`},
		{"duplicate phases key", `{"job":{"stages":[{"id":0,"phases":{"read_sec":1},"phases":{"compute_sec":1}}]}}`},
		{"trailing data", `{"job":` + oneStageJob + `} garbage`},
	}
}

// oneStageJob is a valid one-stage job spec.
const oneStageJob = `{"name":"x","stages":[{"id":0,"phases":{"read_sec":1,"compute_sec":1,"write_sec":1}}]}`

// conserved reports whether the service counters conserve: every
// counted submission is admitted or rejected, and every admitted job is
// live, done or failed.
func conserved(cs ClusterState) bool {
	return cs.Submitted == cs.Admitted+cs.Rejected && cs.Live == cs.Admitted-cs.Done-cs.Failed
}

// wideJobBody is a POST /v1/jobs body whose DAG has n independent stages.
func wideJobBody(n int) string {
	var b strings.Builder
	b.WriteString(`{"tenant":"a","job":{"name":"wide","stages":[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"id":%d,"phases":{"read_sec":1,"compute_sec":1,"write_sec":1}}`, i)
	}
	b.WriteString(`]}}`)
	return b.String()
}

// TestSubmitBodyLimit: a POST /v1/jobs body over maxSubmitBytes is
// refused with 413 before any of it is decoded or counted.
func TestSubmitBodyLimit(t *testing.T) {
	s := newTestService(t, Options{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	big := `{"tenant":"` + strings.Repeat("x", maxSubmitBytes) + `"}`
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	var eb errorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge || !strings.Contains(eb.Error, "too large") {
		t.Fatalf("oversized body: %d %q", resp.StatusCode, eb.Error)
	}
	if cs := s.ClusterState(); cs.Submitted != 0 {
		t.Fatalf("oversized body counted: %+v", cs)
	}
}

// TestSubmitStageLimitStopsDecode: a job over maxSubmitStages is refused
// when its stage maxSubmitStages+1 begins. The body's syntax error after
// that stage is never read.
func TestSubmitStageLimitStopsDecode(t *testing.T) {
	s := newTestService(t, Options{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	body := strings.TrimSuffix(wideJobBody(maxSubmitStages+1), `]}}`) + `,}`
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var eb errorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	want := fmt.Sprintf("over the limit of %d", maxSubmitStages)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(eb.Error, want) {
		t.Fatalf("over-long job with a syntax error after it: %d %q, want 400 and %q", resp.StatusCode, eb.Error, want)
	}
	if cs := s.ClusterState(); cs.Submitted != 0 {
		t.Fatalf("over-long job counted: %+v", cs)
	}
}

// TestSubmitUnplannableJob: a job that is admitted but cannot be planned,
// because its run cannot finish inside the engine's horizon, answers 422
// (not a 5xx) and is counted as admitted and failed.
func TestSubmitUnplannableJob(t *testing.T) {
	s := newTestService(t, Options{})
	body := `{"job":{"stages":[{"id":0,"resources":{"shuffle_in_bytes":1000000000000000,"proc_rate_bps":1}},` +
		`{"id":1,"resources":{"proc_rate_bps":1}}]}}`
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(body)))
	if rec.Code != http.StatusUnprocessableEntity || !strings.Contains(rec.Body.String(), "MaxTime") {
		t.Fatalf("unplannable job: %d %s", rec.Code, rec.Body)
	}
	if cs := s.ClusterState(); cs.Submitted != 1 || cs.Admitted != 1 || cs.Failed != 1 || !conserved(cs) {
		t.Fatalf("unplannable job miscounted: %+v", cs)
	}
}
