package attr

import (
	"fmt"

	"delaystage/internal/obs"
	"delaystage/internal/sim"
)

// Live streams attribution series into an obs.Registry for scraping via
// the -serve introspection endpoint. As a sim.Observer it tracks the
// simulation clock, stage completions and retries while the run goes on;
// Publish then adds the contention waits of the run's Report, so
// /metrics carries the same number as the rendered report and as
// cmd/analyze's rebuild of it from the event log.
//
// Exported series (all with an optional extra label, e.g. the strategy):
//
//	attr_sim_seconds                  current simulation time
//	attr_stages_completed_total       stages that finished
//	attr_retries_total                failed partition attempts
//	attr_contention_wait_seconds{res} Σ StageAttr.Wait[res] of published reports
type Live struct {
	simTime *obs.Gauge
	stages  *obs.Counter
	retries *obs.Counter
	wait    [3]*obs.Counter
}

// NewLive registers the attribution series in reg. label is an optional
// Prometheus label pair like `strategy="spark"` (no braces) merged into
// every series; pass "" for none.
func NewLive(reg *obs.Registry, label string) *Live {
	plain, withRes := "", ""
	if label != "" {
		plain = "{" + label + "}"
		withRes = "," + label
	}
	l := &Live{
		simTime: reg.Gauge("attr_sim_seconds", plain, "current simulation time in seconds"),
		stages:  reg.Counter("attr_stages_completed_total", plain, "stages completed"),
		retries: reg.Counter("attr_retries_total", plain, "failed partition attempts"),
	}
	for _, res := range []sim.Resource{sim.ResNet, sim.ResCPU, sim.ResDisk} {
		l.wait[res] = reg.Counter("attr_contention_wait_seconds",
			fmt.Sprintf("{res=%q%s}", res.String(), withRes),
			"seconds lost to resource sharing, summed over the attribution report's stages")
	}
	return l
}

// OnEvent implements sim.Observer.
func (l *Live) OnEvent(ev sim.Event) {
	l.simTime.Set(ev.T)
	switch ev.Kind {
	case sim.EvStageCompleted:
		l.stages.Inc()
	case sim.EvTaskRetry:
		l.retries.Inc()
	}
}

// Publish adds each resource's contention wait, summed over the report's
// stages, to attr_contention_wait_seconds{res}.
func (l *Live) Publish(rep *Report) {
	for res, c := range l.wait {
		sum := 0.0
		for i := range rep.Stages {
			sum += rep.Stages[i].Wait[res]
		}
		c.Add(sum)
	}
}
