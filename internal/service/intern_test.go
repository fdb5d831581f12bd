package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"delaystage/internal/cluster"
	"delaystage/internal/jobspec"
	"delaystage/internal/workload"
)

// twinPost answers a POST /v1/jobs body the way the handler would without
// interning: jobspec.DecodeSubmission, then Spec.Job, then Submit.
func twinPost(s *Service, body []byte) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	sub, err := jobspec.DecodeSubmission(body, maxSubmitStages)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decode request: %w", err))
		return w
	}
	if sub.Job == nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("missing \"job\""))
		return w
	}
	job, err := sub.Job.Job(s.opt.Cluster)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return w
	}
	st, err := s.Submit(SubmitRequest{Tenant: sub.Tenant, Job: job, Arrival: sub.Arrival})
	writeSubmitted(w, st, err)
	return w
}

// httpPost posts body to h's POST /v1/jobs.
func httpPost(h http.Handler, body []byte) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
	return w
}

// httpGet answers GET path on h.
func httpGet(h http.Handler, path string) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
	return w
}

// metricValue returns the value of one series in s's /metrics text.
func metricValue(t testing.TB, s *Service, series string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Registry().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			return v
		}
	}
	t.Fatalf("no series %s in\n%s", series, buf.String())
	return ""
}

// withoutWallSeconds drops every "wall_seconds" key from a JSON document,
// the one trace field that differs between two runs.
func withoutWallSeconds(t testing.TB, doc []byte) string {
	t.Helper()
	var v any
	if err := json.Unmarshal(doc, &v); err != nil {
		t.Fatalf("%v: %s", err, doc)
	}
	var strip func(any)
	strip = func(v any) {
		switch v := v.(type) {
		case map[string]any:
			delete(v, "wall_seconds")
			for _, e := range v {
				strip(e)
			}
		case []any:
			for _, e := range v {
				strip(e)
			}
		}
	}
	strip(v)
	out, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// requireSameState requires every read endpoint of the two services to
// answer alike: /v1/jobs, and /v1/plan and /v1/trace (less wall_seconds)
// of every job, and /v1/cluster.
func requireSameState(t testing.TB, a, b *Service) {
	t.Helper()
	ha, hb := a.Handler(), b.Handler()
	paths := []string{"/v1/jobs", "/v1/cluster"}
	for _, st := range a.Jobs() {
		paths = append(paths, "/v1/plan/"+st.ID, "/v1/trace/"+st.ID)
	}
	for _, path := range paths {
		ra, rb := httpGet(ha, path), httpGet(hb, path)
		ba, bb := ra.Body.String(), rb.Body.String()
		if strings.HasPrefix(path, "/v1/trace/") && ra.Code == http.StatusOK && rb.Code == http.StatusOK {
			ba, bb = withoutWallSeconds(t, ra.Body.Bytes()), withoutWallSeconds(t, rb.Body.Bytes())
		}
		if ra.Code != rb.Code || ba != bb {
			t.Fatalf("GET %s: %d %s\ntwin: %d %s", path, ra.Code, ba, rb.Code, bb)
		}
	}
}

// TestSubmitInternDifferential posts one sequence of bodies to a service
// through Handler() and to a twin through DecodeSubmission, Spec.Job and
// Submit. Every answer, and every read endpoint afterwards, must match,
// while the first service's intern counters show which posts reused an
// interned spec: only a byte-equal job value sighted twice before hits.
func TestSubmitInternDifferential(t *testing.T) {
	c := cluster.NewM4LargeCluster(10)
	marshal := func(v any) string {
		raw, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(raw)
	}
	a := marshal(jobspec.FromJob(workload.CosineSimilarity(c, 0.15)))
	b := marshal(jobspec.FromJob(workload.LDA(c, 0.1)))
	indented, err := json.MarshalIndent(jobspec.FromJob(workload.CosineSimilarity(c, 0.15)), "", " ")
	if err != nil {
		t.Fatal(err)
	}
	aSpec := jobspec.FromJob(workload.CosineSimilarity(c, 0.15))
	reordered := marshal(struct {
		Stages []jobspec.StageSpec `json:"stages"`
		Name   string              `json:"name"`
	}{aSpec.Stages, aSpec.Name})
	aSpec.Stages[0].Resources.Tasks++
	tweaked := marshal(aSpec)
	env := func(arrival float64, job string) string {
		return fmt.Sprintf(`{"tenant":"t","arrival":%v,"job":%s}`, arrival, job)
	}
	unplannable := `{"job":{"stages":[{"id":0,"resources":{"shuffle_in_bytes":1000000000000000,"proc_rate_bps":1}},` +
		`{"id":1,"resources":{"proc_rate_bps":1}}]}}`
	steps := []struct {
		body string
		hit  bool
	}{
		{unplannable, false}, // admitted, then fails to plan: 422
		{unplannable, false},
		{unplannable, true},
		{env(1000, a), false}, // first sighting
		{env(1000.5, b), false},
		{env(2000, a), false}, // second sighting: interned
		{env(3000, a), true},
		{env(4000, string(indented)), false}, // whitespace differs
		{env(5000, reordered), false},        // key order differs
		{env(6000, tweaked), false},          // one profile field differs
		{`{"tenant":"t","arrival":7000,"job":` + a + `,"job":` + a + `}`, false}, // duplicate key after a known value
		{env(7000, a) + ` x`, false},               // trailing data
		{`{"job":` + a + `,"owner":"x"}`, false},   // unknown field after a known value
		{wideJobBody(maxSubmitStages + 1), false},  // stage-limit overflow
		{`{"arrival":8000,"JOB":` + a + `}`, true}, // key matched by case folding
		{`{"job":` + a + `}`, true},                // arrival from the clock
		{`{"tenant":"t","job":null}`, false},       // missing job
		{env(9000, b), false},                      // b's second sighting
		{env(10000, b), true},
		{env(11000, tweaked), false},
		{env(12000, tweaked), true},
		{env(13000, a), true}, // a burst: the third is revised, the fourth bounced
		{env(13000, a), true},
		{env(13000, a), true},
		{env(13000, a), true},
	}
	opt := Options{Cluster: c, Admission: QueueDepthCap{Max: 3}, ReviseQueueDepth: 2, FairByJob: true}
	s, twin := newTestService(t, opt), newTestService(t, opt)
	h := s.Handler()
	hits, codes := 0, map[int]int{}
	for i, step := range steps {
		got, want := httpPost(h, []byte(step.body)), twinPost(twin, []byte(step.body))
		if got.Code != want.Code || got.Body.String() != want.Body.String() {
			t.Fatalf("post %d: %d %s\ntwin: %d %s", i, got.Code, got.Body, want.Code, want.Body)
		}
		codes[got.Code]++
		if step.hit {
			hits++
		}
		if v := metricValue(t, s, `schedd_spec_intern_total{result="hit"}`); v != fmt.Sprint(hits) {
			t.Fatalf("post %d: %s intern hits, want %d", i, v, hits)
		}
	}
	for _, code := range []int{http.StatusOK, http.StatusBadRequest, http.StatusTooManyRequests, http.StatusUnprocessableEntity} {
		if codes[code] == 0 {
			t.Errorf("no post answered %d: %v", code, codes)
		}
	}
	if v := metricValue(t, s, "schedd_spec_intern_entries"); v != "4" {
		t.Errorf("%s interned specs, want 4 (the unplannable job, a, b and the tweaked a)", v)
	}
	requireSameState(t, s, twin)
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := twin.Drain(); err != nil {
		t.Fatal(err)
	}
	requireSameState(t, s, twin)
}

// TestSubmitInternConcurrent posts one body from several goroutines at
// once, so that they decode, intern and reuse the same spec concurrently
// (run it under -race). Every post must be accepted and counted once, as
// a hit or a miss, and the spec interned once.
func TestSubmitInternConcurrent(t *testing.T) {
	const workers, each = 8, 4
	c := cluster.NewM4LargeCluster(10)
	s := newTestService(t, Options{Cluster: c, FairByJob: true})
	h := s.Handler()
	raw, err := json.Marshal(jobspec.FromJob(workload.LDA(c, 0.1)))
	if err != nil {
		t.Fatal(err)
	}
	body := []byte(`{"tenant":"t","job":` + string(raw) + `}`)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if rec := httpPost(h, body); rec.Code != http.StatusOK {
					t.Errorf("POST: %d %s", rec.Code, rec.Body)
				}
			}
		}()
	}
	wg.Wait()
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	cs := s.ClusterState()
	if cs.Submitted != workers*each || cs.Done != workers*each || !conserved(cs) {
		t.Fatalf("cluster state %+v after %d posts", cs, workers*each)
	}
	hit := metricValue(t, s, `schedd_spec_intern_total{result="hit"}`)
	miss := metricValue(t, s, `schedd_spec_intern_total{result="miss"}`)
	var nh, nm int
	fmt.Sscan(hit, &nh)
	fmt.Sscan(miss, &nm)
	if nh+nm != workers*each || nh == 0 {
		t.Fatalf("%d hits + %d misses over %d posts", nh, nm, workers*each)
	}
	if v := metricValue(t, s, "schedd_spec_intern_entries"); v != "1" {
		t.Fatalf("%s interned specs, want 1", v)
	}
}

// TestSpecTableBounds: a spec is interned on its second sighting, and the
// table keeps at most its capacity in entries and in first-sighting
// hashes, and at most maxInternBytes in keys, evicting the oldest entry
// first.
func TestSpecTableBounds(t *testing.T) {
	tab := newSpecTable(3)
	f := &specFacts{}
	key := func(k int) []byte { return []byte(fmt.Sprintf(`{"name":"%d"}`, k)) }
	if tab.put(key(0), f) != 0 || tab.get(key(0)) != nil {
		t.Fatal("a first sighting interned")
	}
	for k := 0; k < 5; k++ {
		tab.put(key(k), f)
		tab.put(key(k), f)
	}
	if len(tab.entries) != 3 || len(tab.order) != 3 || len(tab.seen) > 3 {
		t.Fatalf("%d entries, %d in order, %d hashes; capacity 3", len(tab.entries), len(tab.order), len(tab.seen))
	}
	for k := 0; k < 5; k++ {
		if got := tab.get(key(k)) != nil; got != (k >= 2) {
			t.Errorf("key %d interned = %v; want the newest three", k, got)
		}
	}
	big := func(c byte) []byte { return bytes.Repeat([]byte{c}, maxInternBytes/2+1) }
	for _, c := range []byte("abc") {
		tab.put(big(c), f)
		tab.put(big(c), f)
		if tab.size > maxInternBytes {
			t.Fatalf("%d key bytes; cap %d", tab.size, maxInternBytes)
		}
	}
	if len(tab.entries) != 1 || tab.get(big('c')) == nil {
		t.Fatalf("%d entries after three half-cap keys; want the last alone", len(tab.entries))
	}
	over := make([]byte, maxInternBytes+1)
	tab.put(over, f)
	tab.put(over, f)
	if tab.get(over) != nil {
		t.Fatal("a key over the byte cap was interned")
	}
}

// TestSubmitInternDisabled: a negative CacheCapacity turns interning off
// with the template cache, so a recurring spec is decoded every time.
func TestSubmitInternDisabled(t *testing.T) {
	c := cluster.NewM4LargeCluster(10)
	s := newTestService(t, Options{Cluster: c, CacheCapacity: -1})
	if s.specs != nil || s.cache != nil {
		t.Fatal("CacheCapacity -1 left the intern table or the template cache on")
	}
	h := s.Handler()
	for k := 0; k < 3; k++ {
		if rec := httpPost(h, submitBodyFor(t, workload.LDA(c, 0.1), "t", float64(k))); rec.Code != http.StatusOK {
			t.Fatalf("POST: %d %s", rec.Code, rec.Body)
		}
	}
	for _, series := range []string{`schedd_spec_intern_total{result="hit"}`, `schedd_spec_intern_total{result="miss"}`} {
		if v := metricValue(t, s, series); v != "0" {
			t.Errorf("%s = %s with interning off", series, v)
		}
	}
}
