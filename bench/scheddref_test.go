package main

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"delaystage/internal/cluster"
	"delaystage/internal/jobspec"
	"delaystage/internal/service"
)

// submitAll drives service.New under cmd/schedd's defaults, with a frozen
// wall clock, through the inputs' warm-ups and submissions; between two
// submissions it calls between. It returns every job's JCT.
func submitAll(t *testing.T, in *scheddInputs, between func(svc *service.Service, id string)) map[string]float64 {
	t.Helper()
	c := cluster.NewM4LargeCluster(scheddNodes)
	opt := defaultServiceOptions(c)
	frozen := time.Unix(0, 0)
	opt.Clock = func() time.Time { return frozen }
	svc, err := service.New(opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, body := range append(append([][]byte(nil), in.warmups...), in.posts...) {
		var req struct {
			Tenant  string          `json:"tenant"`
			Arrival *float64        `json:"arrival"`
			Job     json.RawMessage `json:"job"`
		}
		if err := json.Unmarshal(body, &req); err != nil {
			t.Fatal(err)
		}
		spec, err := jobspec.Parse(bytes.NewReader(req.Job))
		if err != nil {
			t.Fatal(err)
		}
		job, err := spec.Job(c)
		if err != nil {
			t.Fatal(err)
		}
		st, err := svc.Submit(service.SubmitRequest{Tenant: req.Tenant, Job: job, Arrival: req.Arrival})
		if err != nil {
			t.Fatal(err)
		}
		between(svc, st.ID)
	}
	if err := svc.Drain(); err != nil {
		t.Fatal(err)
	}
	jcts := map[string]float64{}
	for _, st := range svc.Jobs() {
		jcts[st.ID] = st.JCT
	}
	return jcts
}

// The schedd workloads read plans with GET /v1/plan/{id} while they
// submit, and read the endpoints that call Service.Sync only once the
// sentinel has drained the world. This test pins the reason: a plan read
// leaves every JCT unchanged, while a Sync between submissions moves the
// simulated clock past the last arrival and clamps later arrivals forward.
// The logged count is the repro cited in bench/README.md.
func TestPlanReadsDoNotPerturbButSyncDoes(t *testing.T) {
	in, err := genScheddInputs(scheddBusy, 1, 2000)
	if err != nil {
		t.Fatal(err)
	}
	plain := submitAll(t, in, func(*service.Service, string) {})
	withPlan := submitAll(t, in, func(svc *service.Service, id string) {
		if _, ok := svc.Plan(id); !ok {
			t.Fatalf("no plan for %s", id)
		}
	})
	if !equalJCTs(plain, withPlan) {
		t.Fatal("reading plans between submissions changed JCTs")
	}
	withSync := submitAll(t, in, func(svc *service.Service, _ string) {
		if err := svc.Sync(); err != nil {
			t.Fatal(err)
		}
	})
	changed := 0
	for id, v := range plain {
		if withSync[id] != v {
			changed++
		}
	}
	t.Logf("one Sync per submission changed %d of %d JCTs", changed, len(plain))
}
