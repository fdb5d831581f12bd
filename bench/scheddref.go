package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"delaystage/internal/cluster"
	"delaystage/internal/dag"
	"delaystage/internal/jobspec"
	"delaystage/internal/obs"
	"delaystage/internal/service"
	"delaystage/internal/sim"
	"delaystage/internal/workload"
)

// defaultServiceOptions mirrors cmd/schedd's flag defaults.
func defaultServiceOptions(c *cluster.Cluster) service.Options {
	return service.Options{
		Cluster:        c,
		Admission:      service.AcceptAll{},
		DriftTolerance: 0.15,
		MaxCandidates:  16,
		SlotSeconds:    1,
		FairByJob:      true,
		TimeScale:      1,
	}
}

// scheddRef is the in-process replay of a schedd run's inputs.
type scheddRef struct {
	jcts        map[string]float64 // every job but the sentinel
	epochs      int                // busy periods, the sentinel's included
	wall        time.Duration      // the whole replay, heap measurement excluded
	heapPerPost float64            // live heap growth per submission, bytes
}

// refServer is the in-process daemon: service.New with cmd/schedd's
// defaults behind a loopback HTTP server. POST /v1/jobs is answered by a
// copy of the service's submit handler built from the layers' public
// functions, so the traced pass can time jobspec decoding, Service.Submit
// and the plan inside it separately; every other route is the service's
// own handler.
type refServer struct {
	c   *cluster.Cluster
	svc *service.Service
	tr  *tracer

	mu   sync.Mutex
	jobs map[string]*workload.Job // traced pass: decoded jobs by id
}

// reqSpan is the client span id an in-process request carries.
func reqSpan(r *http.Request) int {
	id, err := strconv.Atoi(r.Header.Get("X-Bench-Req"))
	if err != nil {
		return -1
	}
	return id
}

// handlerSpan is the request-context key of the middleware's span id.
type handlerSpan struct{}

func (s *refServer) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.submit)
	mux.Handle("/", s.svc.Handler())
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent := reqSpan(r)
		sp := s.tr.begin("http.handler", "http", parent, parent)
		mux.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), handlerSpan{}, sp)))
		s.tr.finish(sp)
	})
}

// writeJSON renders a response the way the service does.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // the client sees a short body as a failed check
}

func (s *refServer) submit(w http.ResponseWriter, r *http.Request) {
	req := reqSpan(r)
	handler, _ := r.Context().Value(handlerSpan{}).(int)
	sp := s.tr.begin("jobspec.decode", "jobspec", handler, req)
	var body struct {
		Tenant  string          `json:"tenant"`
		Arrival *float64        `json:"arrival"`
		Job     json.RawMessage `json:"job"`
	}
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	err := dec.Decode(&body)
	var job *workload.Job
	if err == nil {
		var spec *jobspec.Spec
		if spec, err = jobspec.Parse(bytes.NewReader(body.Job)); err == nil {
			job, err = spec.Job(s.c)
		}
	}
	s.tr.finish(sp)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	sp = s.tr.begin("service.submit", "service", handler, req)
	st, err := s.svc.Submit(service.SubmitRequest{Tenant: body.Tenant, Job: job, Arrival: body.Arrival})
	s.tr.finish(sp)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
		return
	}
	if s.tr != nil {
		s.auditPlan(st.ID, sp, req)
		s.mu.Lock()
		s.jobs[st.ID] = job
		s.mu.Unlock()
	}
	writeJSON(w, http.StatusOK, st)
}

// auditPlan reads the plan's decision audit and records the plan as a
// child of the submit span: the planner's sweep or the template-cache
// path (drift check included), timed by the service itself.
func (s *refServer) auditPlan(id string, submitSpan, req int) {
	sp := s.tr.begin("bench.audit", "bench", -1, req)
	defer s.tr.finish(sp)
	trc, ok := s.svc.Trace(id)
	if !ok {
		return
	}
	for _, span := range trc.Spans {
		a := span.Audit
		if span.Kind != obs.SpanPlan || a == nil {
			continue
		}
		d := time.Duration(a.WallSeconds * float64(time.Second))
		switch a.Source {
		case "planner":
			s.tr.inner("planner.plan", "planner", submitSpan, req, d)
			s.tr.count("planner.sweeps", 1)
			s.tr.count("planner.exact_evals", float64(a.ExactEvals))
			s.tr.count("planner.bounded", float64(a.Bounded))
			s.tr.count("planner.pruned", float64(a.Pruned))
			if len(a.Delays) > 0 {
				s.tr.count("planner.useful", 1)
			}
		case "template-cache":
			s.tr.inner("cache.plan", "cache", submitSpan, req, d)
			s.tr.count("cache.plans", 1)
		}
	}
}

// runScheddReference replays the inputs through an in-process daemon,
// closed loop on one connection: the warm-ups, the submissions with the
// reads interleaved at their nominal ratio, and the sentinel. With a
// tracer it records a span around every layer call, plus a shadow of the
// data plane: for each admission it rebuilds the epoch's committed runs
// in a fresh sim.Stepper and steps it to the arrival, as the service
// does internally.
func runScheddReference(in *scheddInputs, tr *tracer) (*scheddRef, error) {
	start := time.Now()
	var gcTime time.Duration
	c := cluster.NewM4LargeCluster(scheddNodes)
	svc, err := service.New(defaultServiceOptions(c))
	if err != nil {
		return nil, err
	}
	rs := &refServer{c: c, svc: svc, tr: tr, jobs: map[string]*workload.Job{}}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: rs.handler()}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		<-served
	}()
	cn, err := dial(ln.Addr().String())
	if err != nil {
		return nil, err
	}
	defer cn.close()

	req := 0
	do := func(method, path string, body []byte) ([]byte, error) {
		sp := tr.begin("http.roundtrip", "http", -1, req)
		if tr != nil {
			cn.reqID = strconv.Itoa(sp)
		}
		code, b, err := cn.do(method, path, body)
		tr.finish(sp)
		req++
		if err == nil && code != 200 {
			err = fmt.Errorf("%s %s: status %d: %s", method, path, code, b)
		}
		return b, err
	}
	coarse := sim.Coarsen(c)
	dp := &shadowDataPlane{opt: sim.Options{Cluster: coarse, TrackNode: -1, FairByJob: true}, epoch: -1}
	post := func(body []byte) error {
		b, err := do("POST", "/v1/jobs", body)
		if err != nil {
			return err
		}
		if tr == nil {
			return nil
		}
		var st service.JobStatus
		if err := json.Unmarshal(b, &st); err != nil {
			return err
		}
		return dp.admit(rs, st, req-1)
	}

	for _, body := range in.warmups {
		if err := post(body); err != nil {
			return nil, err
		}
	}
	// Both passes measure the live heap the submissions leave behind (the
	// service keeps every job's record and trace), so that they collect
	// garbage at the same points.
	heap := func() float64 {
		t := time.Now()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		gcTime += time.Since(t)
		return float64(ms.HeapAlloc)
	}
	heap0 := heap()
	nextRead := 0
	base := len(in.warmups)
	for i, body := range in.posts {
		if err := post(body); err != nil {
			return nil, err
		}
		for nextRead < len(in.readU) && float64(nextRead+1)*in.readEvery <= float64(i+1) {
			if _, err := do("GET", "/v1/plan/"+readTarget(in.readU[nextRead], base+i+1), nil); err != nil {
				return nil, err
			}
			nextRead++
		}
	}
	ref := &scheddRef{jcts: map[string]float64{}, heapPerPost: (heap() - heap0) / float64(len(in.posts))}
	if err := post(in.sentinel); err != nil {
		return nil, err
	}
	sentinelID := jobID(base + len(in.posts))
	for _, st := range svc.Jobs() {
		if st.ID != sentinelID {
			ref.jcts[st.ID] = st.JCT
		}
	}
	ref.epochs = svc.ClusterState().Epoch
	ref.wall = time.Since(start) - gcTime
	return ref, nil
}

// shadowDataPlane tracks the committed runs of the service's current
// busy-period epoch from the submit responses and plans.
type shadowDataPlane struct {
	opt   sim.Options
	epoch int
	runs  []sim.JobRun
}

func (d *shadowDataPlane) admit(rs *refServer, st service.JobStatus, req int) error {
	tr := rs.tr
	sp := tr.begin("bench.plan", "bench", -1, req)
	ps, ok := rs.svc.Plan(st.ID)
	rs.mu.Lock()
	job := rs.jobs[st.ID]
	rs.mu.Unlock()
	tr.finish(sp)
	if !ok || job == nil {
		return fmt.Errorf("shadow data plane: no plan for %s", st.ID)
	}
	if st.Epoch != d.epoch {
		d.epoch, d.runs = st.Epoch, d.runs[:0]
	}
	var delays map[dag.StageID]float64
	if len(ps.Delays) > 0 {
		delays = make(map[dag.StageID]float64, len(ps.Delays))
		for k, v := range ps.Delays {
			id, err := strconv.Atoi(k)
			if err != nil {
				return err
			}
			delays[dag.StageID(id)] = v
		}
	}
	d.runs = append(d.runs, sim.JobRun{Job: job, Arrival: st.Arrival, Delays: delays})
	sp = tr.beginShadow("sim.stepper", "sim", -1, req)
	stp, err := sim.NewStepper(d.opt, d.runs)
	if err == nil {
		for err == nil && stp.HasPendingEvents() && stp.PeekNextEventTime() <= st.Arrival {
			err = stp.StepNextEvent()
		}
	}
	tr.finish(sp)
	if err != nil {
		return fmt.Errorf("shadow data plane: %w", err)
	}
	tr.count("dataplane.events", float64(stp.Events()))
	tr.count("dataplane.admissions", 1)
	return nil
}

// scheddReferenceChecks compares every round's JCTs with the in-process
// replay, returns it and, on a traced run, measures the per-layer metrics.
func scheddReferenceChecks(rc *runCtx, in *scheddInputs, rds []*scheddRound, oc *outcome) (*scheddRef, error) {
	prev := runtime.GOMAXPROCS(1) // the child's setting
	defer runtime.GOMAXPROCS(prev)
	ref, err := runScheddReference(in, nil)
	if err != nil {
		return nil, fmt.Errorf("in-process reference: %w", err)
	}
	differ := 0
	for _, rd := range rds {
		if !equalJCTs(rd.jcts, ref.jcts) {
			differ++
		}
	}
	oc.check("jct-vs-reference", differ == 0,
		"%d of %d rounds differ from service.New under cmd/schedd defaults driven with the same sequence (%d job JCTs each)",
		differ, len(rds), len(ref.jcts))
	if !rc.trace {
		return ref, nil
	}
	tr := newTracer()
	traced, err := runScheddReference(in, tr)
	if err != nil {
		return nil, fmt.Errorf("traced replay: %w", err)
	}
	oc.check("traced-jct-vs-reference", equalJCTs(traced.jcts, ref.jcts), "traced in-process replay JCTs")
	// A second untraced pass after the traced one: the first runs on a cold
	// heap, so the two bracket the traced pass.
	again, err := runScheddReference(in, nil)
	if err != nil {
		return nil, fmt.Errorf("in-process reference: %w", err)
	}
	ls, m := layerMetrics(oc, tr, traced.wall, (ref.wall+again.wall)/2)
	cnt := tr.counts
	posts := float64(len(in.warmups) + len(in.posts) + 1)
	roundtrip, handler := spanMean(tr.durations("http.roundtrip")), spanMean(tr.durations("http.handler"))
	submit := tr.durations("service.submit")
	planner := tr.durations("planner.plan")
	m["http.roundtrip_us"] = roundtrip
	m["http.handler_us"] = handler
	m["http.transport_us"] = roundtrip - handler
	m["jobspec.decode_us"] = spanMean(tr.durations("jobspec.decode"))
	m["service.submit_p50_us"] = percentile(submit, 0.5)
	m["service.submit_p99_us"] = percentile(submit, 0.99)
	m["service.submit_self_us"] = float64(ls.self["service"].Microseconds()) / posts
	m["service.plan_planner_ms"] = spanMean(planner) / 1e3
	m["service.plan_cache_us"] = spanMean(tr.durations("cache.plan"))
	m["service.cache_hit_ratio"] = ratio(cnt["cache.plans"], cnt["cache.plans"]+cnt["planner.sweeps"])
	m["service.epochs"] = float64(ref.epochs)
	m["service.busy_period_jobs"] = ratio(posts, float64(ref.epochs))
	m["service.heap_bytes_per_job"] = ref.heapPerPost
	m["planner.sweeps"] = cnt["planner.sweeps"]
	m["planner.exact_evals_per_sweep"] = ratio(cnt["planner.exact_evals"], cnt["planner.sweeps"])
	m["planner.prune_ratio"] = ratio(cnt["planner.pruned"], cnt["planner.bounded"])
	m["planner.us_per_exact_eval"] = ratio(sum(planner), cnt["planner.exact_evals"])
	m["planner.useful_ratio"] = ratio(cnt["planner.useful"], cnt["planner.sweeps"])
	stepper := sum(tr.durations("sim.stepper"))
	m["dataplane.events_replayed_per_submit"] = ratio(cnt["dataplane.events"], cnt["dataplane.admissions"])
	m["dataplane.replay_us_per_submit"] = ratio(stepper, cnt["dataplane.admissions"])
	m["sim.stepper_ns_per_event"] = ratio(1e3*stepper, cnt["dataplane.events"])
	return ref, nil
}

// equalJCTs reports whether two JCT maps hold the same jobs with
// bit-identical values.
func equalJCTs(a, b map[string]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for id, v := range a {
		w, ok := b[id]
		if !ok || math.Float64bits(v) != math.Float64bits(w) {
			return false
		}
	}
	return true
}
