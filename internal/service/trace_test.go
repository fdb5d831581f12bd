package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"delaystage/internal/cluster"
	"delaystage/internal/obs"
	"delaystage/internal/workload"
)

// getBody fetches a URL and returns the raw response body.
func getBody(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

// spansByKind indexes a trace's spans by kind.
func spansByKind(tr obs.Trace) map[string][]obs.Span {
	out := map[string][]obs.Span{}
	for _, sp := range tr.Spans {
		out[sp.Kind] = append(out[sp.Kind], sp)
	}
	return out
}

// The headline acceptance test: a job submitted over HTTP yields a
// complete span tree from GET /v1/trace/{id}, and the trace-log export
// reconstructs that response byte-identically offline — the same
// decode-and-re-encode path cmd/analyze -trace uses.
func TestTraceEndToEndHTTP(t *testing.T) {
	var traceBuf, logBuf bytes.Buffer
	c := cluster.NewM4LargeCluster(10)
	level, err := obs.ParseLogLevel("debug")
	if err != nil {
		t.Fatal(err)
	}
	s := newTestService(t, Options{
		Cluster:  c,
		TraceLog: &traceBuf,
		Logger:   obs.NewLogger(&logBuf, level),
	})
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
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	st, ok := s.Job(st.ID)
	if !ok || st.State != StateDone {
		t.Fatalf("after drain: %+v", st)
	}

	code, live := getBody(t, srv.URL+"/v1/trace/"+st.ID)
	if code != http.StatusOK {
		t.Fatalf("trace: %d (%s)", code, live)
	}
	var tr obs.Trace
	if err := json.Unmarshal(live, &tr); err != nil {
		t.Fatal(err)
	}
	if tr.Schema != obs.TraceSchema || tr.TraceID != st.ID || tr.State != string(StateDone) {
		t.Fatalf("trace header: %+v", tr)
	}

	// Span-tree completeness: one closed root plus submit, admission,
	// plan (audited), queue, and one span per stage, all parented.
	byKind := spansByKind(tr)
	for _, kind := range []string{obs.SpanJob, obs.SpanSubmit, obs.SpanAdmission, obs.SpanPlan, obs.SpanQueue} {
		if len(byKind[kind]) != 1 {
			t.Fatalf("%d %q spans, want 1:\n%s", len(byKind[kind]), kind, live)
		}
	}
	if got := len(byKind[obs.SpanStage]); got != st.Stages {
		t.Fatalf("%d stage spans, want %d", got, st.Stages)
	}
	root := byKind[obs.SpanJob][0]
	if root.ID != 0 || root.Parent != -1 || root.Open || root.End != st.End {
		t.Fatalf("root span: %+v", root)
	}
	for _, sp := range tr.Spans[1:] {
		if sp.Parent != root.ID {
			t.Fatalf("span %d detached from root: %+v", sp.ID, sp)
		}
		if sp.Open || sp.Start < 0 || sp.End < sp.Start || sp.End > root.End {
			t.Fatalf("span %d out of bounds: %+v", sp.ID, sp)
		}
	}
	plan := byKind[obs.SpanPlan][0]
	if plan.Audit == nil || plan.Audit.Source != "planner" {
		t.Fatalf("plan span audit: %+v", plan.Audit)
	}
	if plan.Audit.Evaluations < 2 || plan.Audit.IncumbentTotal <= 0 {
		t.Fatalf("cold-plan audit not populated: %+v", plan.Audit)
	}
	if plan.Audit.Fallback == "" && len(plan.Audit.Delays) == 0 {
		t.Fatal("audit carries neither delays nor a fallback reason")
	}

	// Offline reconstruction: decode the trace log, re-encode the job's
	// trace, and require the exact bytes the live endpoint served.
	traces, err := obs.ReadTraces(bytes.NewReader(traceBuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	off, ok := obs.FindTrace(traces, st.ID)
	if !ok {
		t.Fatalf("trace %s missing from export (%d traces)", st.ID, len(traces))
	}
	var offBuf bytes.Buffer
	if err := obs.EncodeTraceJSON(&offBuf, off); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(offBuf.Bytes(), live) {
		t.Fatalf("offline reconstruction differs from live response:\n--- offline ---\n%s\n--- live ---\n%s",
			offBuf.Bytes(), live)
	}

	// The timeline ring saw the job's milestones in order.
	code, rawTL := getBody(t, srv.URL+"/v1/timeline")
	if code != http.StatusOK {
		t.Fatalf("timeline: %d", code)
	}
	var tl TimelineStatus
	if err := json.Unmarshal(rawTL, &tl); err != nil {
		t.Fatal(err)
	}
	if tl.Schema != TimelineSchema || tl.Dropped != 0 {
		t.Fatalf("timeline header: %+v", tl)
	}
	var kinds []string
	for _, ev := range tl.Events {
		if ev.Job == st.ID || ev.Kind == "epoch" {
			kinds = append(kinds, ev.Kind)
		}
	}
	want := []string{"submitted", "planned", "done", "epoch"}
	if strings.Join(kinds, ",") != strings.Join(want, ",") {
		t.Fatalf("timeline kinds %v, want %v", kinds, want)
	}

	// Histograms exported; service logs carry the trace ID.
	code, metrics := getBody(t, srv.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	for _, name := range []string{"schedd_e2e_seconds_count 1", "schedd_queue_wait_seconds_count 1"} {
		if !strings.Contains(string(metrics), name) {
			t.Errorf("metrics missing %q", name)
		}
	}
	if !strings.Contains(logBuf.String(), `"trace_id":"`+st.ID+`"`) {
		t.Errorf("service log has no trace_id-keyed line for %s:\n%s", st.ID, logBuf.String())
	}
}

// Decision-audit variants: a template-cache hit, a queue-depth revision
// and an admission rejection each leave their distinct mark on the trace.
func TestTraceAuditVariants(t *testing.T) {
	c := cluster.NewM4LargeCluster(10)
	job := workload.CosineSimilarity(c, 0.15)

	t.Run("cache-hit", func(t *testing.T) {
		s := newTestService(t, Options{Cluster: c})
		first, err := s.Submit(SubmitRequest{Job: job, Arrival: ptr(0.0)})
		if err != nil {
			t.Fatal(err)
		}
		second, err := s.Submit(SubmitRequest{Job: job, Arrival: ptr(5.0)})
		if err != nil {
			t.Fatal(err)
		}
		tr, ok := s.Trace(second.ID)
		if !ok {
			t.Fatal("no trace for cache hit")
		}
		plan := spansByKind(tr)[obs.SpanPlan][0]
		if plan.Audit == nil || plan.Audit.Source != "template-cache" || !plan.Audit.CacheHit {
			t.Fatalf("cache-hit audit: %+v", plan.Audit)
		}
		coldTr, _ := s.Trace(first.ID)
		cold := spansByKind(coldTr)[obs.SpanPlan][0]
		if cold.Audit.Fingerprint == "" || cold.Audit.Fingerprint != plan.Audit.Fingerprint {
			t.Fatalf("fingerprint mismatch: %q vs %q", cold.Audit.Fingerprint, plan.Audit.Fingerprint)
		}
	})

	t.Run("queue-revision", func(t *testing.T) {
		s := newTestService(t, Options{Cluster: c, ReviseQueueDepth: 2, CacheCapacity: -1})
		for i := 0; i < 2; i++ {
			if _, err := s.Submit(SubmitRequest{Job: job, Arrival: ptr(float64(i))}); err != nil {
				t.Fatal(err)
			}
		}
		st, err := s.Submit(SubmitRequest{Job: job, Arrival: ptr(2.0)})
		if err != nil {
			t.Fatal(err)
		}
		tr, _ := s.Trace(st.ID)
		plan := spansByKind(tr)[obs.SpanPlan][0]
		if plan.Audit == nil || plan.Audit.Source != "queue-revision" || plan.Audit.Fallback != "queue-depth" {
			t.Fatalf("revision audit: %+v", plan.Audit)
		}
		if plan.Audit.QueueDepth < 2 || len(plan.Audit.Delays) != 0 {
			t.Fatalf("revision audit payload: %+v", plan.Audit)
		}
	})

	t.Run("rejected", func(t *testing.T) {
		var traceBuf bytes.Buffer
		s := newTestService(t, Options{Cluster: c, Admission: QueueDepthCap{Max: 1}, TraceLog: &traceBuf})
		if _, err := s.Submit(SubmitRequest{Job: job, Arrival: ptr(0.0)}); err != nil {
			t.Fatal(err)
		}
		st, err := s.Submit(SubmitRequest{Job: job, Arrival: ptr(1.0)})
		if err != nil {
			t.Fatal(err)
		}
		if st.State != StateRejected {
			t.Fatalf("not rejected: %+v", st)
		}
		tr, ok := s.Trace(st.ID)
		if !ok || tr.State != string(StateRejected) {
			t.Fatalf("rejected trace: %+v", tr)
		}
		byKind := spansByKind(tr)
		if len(byKind[obs.SpanPlan]) != 0 || len(byKind[obs.SpanStage]) != 0 {
			t.Fatalf("rejected job grew plan/stage spans: %+v", tr.Spans)
		}
		adm := byKind[obs.SpanAdmission][0]
		if adm.Attrs["accepted"] != false || adm.Attrs["reason"] == nil {
			t.Fatalf("admission span attrs: %+v", adm.Attrs)
		}
		// Rejection exports immediately, before any drain.
		traces, err := obs.ReadTraces(bytes.NewReader(traceBuf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := obs.FindTrace(traces, st.ID); !ok {
			t.Fatal("rejected trace not exported")
		}
	})
}

// A live (undrained) job serves a partial tree: the root is open and no
// span pretends the job already finished.
func TestTraceLiveOpenSpans(t *testing.T) {
	c := cluster.NewM4LargeCluster(10)
	s := newTestService(t, Options{Cluster: c})
	job := workload.CosineSimilarity(c, 0.15)
	st, err := s.Submit(SubmitRequest{Job: job, Arrival: ptr(0.0)})
	if err != nil {
		t.Fatal(err)
	}
	tr, ok := s.Trace(st.ID)
	if !ok {
		t.Fatal("no live trace")
	}
	if tr.State != string(StateRunning) {
		t.Fatalf("live state %q", tr.State)
	}
	if root := tr.Spans[0]; !root.Open {
		t.Fatalf("live root not open: %+v", root)
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	tr, _ = s.Trace(st.ID)
	for _, sp := range tr.Spans {
		if sp.Open {
			t.Fatalf("span still open after drain: %+v", sp)
		}
	}
}

// The timeline ring is bounded: it keeps the newest entries, reports the
// eviction count, and sequence numbers stay strictly increasing.
func TestTimelineRingBound(t *testing.T) {
	c := cluster.NewM4LargeCluster(10)
	s := newTestService(t, Options{Cluster: c})
	s.tlCap = 5
	job := workload.LDA(c, 0.1)
	for i := 0; i < 4; i++ {
		if _, err := s.Submit(SubmitRequest{Job: job, Arrival: ptr(float64(i * 10))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	tl := s.Timeline()
	if len(tl.Events) > 5 {
		t.Fatalf("ring overgrew: %d events", len(tl.Events))
	}
	if tl.Dropped == 0 {
		t.Fatal("evictions not reported")
	}
	for i := 1; i < len(tl.Events); i++ {
		if tl.Events[i].Seq != tl.Events[i-1].Seq+1 {
			t.Fatalf("sequence gap: %+v", tl.Events)
		}
	}
	if last := tl.Events[len(tl.Events)-1]; last.Seq+1 != tl.Dropped+len(tl.Events) {
		t.Fatalf("seq accounting: last=%d dropped=%d len=%d", last.Seq, tl.Dropped, len(tl.Events))
	}
}

// TestTimelineRingMatchesShiftModel: for every capacity and every add
// count up to three times around the ring, Timeline() returns the same
// events in the same order, and the same dropped count, as a naive model
// that shifts the whole slice left on every add once it is full.
func TestTimelineRingMatchesShiftModel(t *testing.T) {
	for _, capacity := range []int{1, 2, 5} {
		for adds := 0; adds <= 3*capacity; adds++ {
			s := newTestService(t, Options{})
			s.tlCap = capacity
			var model []TimelineEvent
			for i := 0; i < adds; i++ {
				ev := TimelineEvent{Seq: i, T: float64(i) / 2, Kind: "k", Job: fmt.Sprintf("j-%d", i), Detail: strconv.Itoa(i)}
				s.timelineAdd(ev.T, ev.Kind, ev.Job, ev.Detail)
				if len(model) >= capacity {
					n := copy(model, model[len(model)-capacity+1:])
					model = model[:n]
				}
				model = append(model, ev)
			}
			dropped := adds
			if len(model) > 0 {
				dropped = model[0].Seq
			}
			tl := s.Timeline()
			if !reflect.DeepEqual(tl.Events, model) || tl.Dropped != dropped {
				t.Fatalf("cap %d, %d adds: ring %+v dropped %d, model %+v dropped %d",
					capacity, adds, tl.Events, tl.Dropped, model, dropped)
			}
		}
	}
}

// TestTerminalTraceStable drives several epochs through Handler() on an
// injected clock and a trace log. Every terminal job's GET /v1/trace body
// must be the bytes its trace-log line renders to under the HTTP encoder,
// both at the first read after the job ends and again after later epochs
// have moved the clock on. The session covers done, rejected and
// planning-failed jobs; later epochs run on recycled engines and serve
// template-cache hits.
func TestTerminalTraceStable(t *testing.T) {
	const epochs, gap, step = 4, 2000.0, 5.0
	c := cluster.NewM4LargeCluster(10)
	t0 := time.Unix(1700000000, 0)
	now := t0
	var traceBuf bytes.Buffer
	s := newTestService(t, Options{
		Cluster:   c,
		Admission: QueueDepthCap{Max: 2},
		TraceLog:  &traceBuf,
		Clock:     func() time.Time { return now },
	})
	h := s.Handler()
	serve := func(method, path string, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
		return rec
	}
	// exported renders every trace-log line the way GET /v1/trace encodes
	// a response body.
	exported := func() map[string][]byte {
		traces, err := obs.ReadTraces(bytes.NewReader(traceBuf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[string][]byte, len(traces))
		for _, tr := range traces {
			if _, dup := out[tr.TraceID]; dup {
				t.Fatalf("trace %s exported twice", tr.TraceID)
			}
			rec := httptest.NewRecorder()
			writeJSON(rec, http.StatusOK, tr)
			out[tr.TraceID] = rec.Body.Bytes()
		}
		return out
	}
	requireLive := func(id string, want []byte) {
		t.Helper()
		rec := serve(http.MethodGet, "/v1/trace/"+id, nil)
		if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
			t.Fatalf("GET /v1/trace/%s (%d) differs from its trace-log line:\n--- live ---\n%s\n--- log ---\n%s",
				id, rec.Code, rec.Body, want)
		}
	}
	// checked holds the IDs already compared at their first terminal read.
	checked := map[string]bool{}
	checkNew := func() {
		t.Helper()
		for id, want := range exported() {
			if !checked[id] {
				requireLive(id, want)
				checked[id] = true
			}
		}
	}

	job := workload.CosineSimilarity(c, 0.15)
	unplannable := []byte(`{"job":{"stages":[{"id":0,"resources":{"shuffle_in_bytes":1000000000000000,"proc_rate_bps":1}},` +
		`{"id":1,"resources":{"proc_rate_bps":1}}]}}`)
	states := map[JobState]int{}
	for e := 0; e < epochs; e++ {
		base := float64(float64(e) * gap)
		now = t0.Add(time.Duration(base * float64(time.Second)))
		if e%2 == 0 {
			if rec := serve(http.MethodPost, "/v1/jobs", unplannable); rec.Code != http.StatusUnprocessableEntity {
				t.Fatalf("epoch %d: unplannable job answered %d %s", e, rec.Code, rec.Body)
			}
			checkNew()
		}
		// Two admitted jobs, then one bounced at the queue-depth cap.
		for k, want := range []int{http.StatusOK, http.StatusOK, http.StatusTooManyRequests} {
			if rec := serve(http.MethodPost, "/v1/jobs", submitBodyFor(t, job, "t", base+float64(k))); rec.Code != want {
				t.Fatalf("epoch %d, submit %d: %d %s", e, k, rec.Code, rec.Body)
			}
			checkNew()
		}
		// Move the clock in small steps, so each job is compared at the
		// first read after it ends, until the busy period drains.
		for at := base; s.ClusterState().Live > 0; at += step {
			if at > base+float64(gap/2) {
				t.Fatalf("epoch %d did not drain by %v", e, at)
			}
			now = t0.Add(time.Duration(at * float64(time.Second)))
			if rec := serve(http.MethodGet, "/v1/cluster", nil); rec.Code != http.StatusOK {
				t.Fatalf("GET /v1/cluster: %d", rec.Code)
			}
			checkNew()
		}
		if cs := s.ClusterState(); cs.Epoch != e+1 {
			t.Fatalf("after epoch %d the service is in epoch %d", e, cs.Epoch)
		}
	}
	for _, st := range s.Jobs() {
		states[st.State]++
	}
	want := map[JobState]int{StateDone: 2 * epochs, StateRejected: epochs, StateFailed: (epochs + 1) / 2}
	if !reflect.DeepEqual(states, want) {
		t.Fatalf("job states %v, want %v", states, want)
	}
	// Long after they ended, every terminal trace still renders the same.
	logged := exported()
	if len(logged) != len(checked) || len(logged) != len(s.Jobs()) {
		t.Fatalf("%d traces exported, %d checked, %d jobs", len(logged), len(checked), len(s.Jobs()))
	}
	for id, want := range logged {
		requireLive(id, want)
	}
}
