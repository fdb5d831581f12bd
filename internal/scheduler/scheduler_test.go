package scheduler

import (
	"testing"

	"delaystage/internal/cluster"
	"delaystage/internal/core"
	"delaystage/internal/sim"
	"delaystage/internal/workload"
)

// runJob plans one job under a strategy and simulates it alone, the
// plan's watchdog attached.
func runJob(c *cluster.Cluster, job *workload.Job, s Strategy, opt sim.Options) (*sim.Result, error) {
	plan, err := s.Plan(c, job)
	if err != nil {
		return nil, err
	}
	opt.Cluster, opt.AggShuffle, opt.Watchdog = c, plan.AggShuffle, plan.Watchdog
	return sim.Run(opt, []sim.JobRun{{Job: job, Delays: plan.Delays}})
}

func TestStrategyNames(t *testing.T) {
	cases := []struct {
		s    Strategy
		want string
	}{
		{Spark{}, "Spark"},
		{AggShuffle{}, "AggShuffle"},
		{Fuxi{}, "Fuxi"},
		{DelayStage{}, "DelayStage"},
		{DelayStage{Order: core.Ascending}, "DelayStage-ascending"},
		{DelayStage{Order: core.Random}, "DelayStage-random"},
	}
	for _, c := range cases {
		if got := c.s.Name(); got != c.want {
			t.Errorf("Name = %q, want %q", got, c.want)
		}
	}
}

func TestSparkPlanEmpty(t *testing.T) {
	p, err := Spark{}.Plan(nil, nil)
	if err != nil || p.Delays != nil || p.AggShuffle {
		t.Fatalf("spark plan = %+v, %v", p, err)
	}
}

func TestAggShufflePlan(t *testing.T) {
	p, err := AggShuffle{}.Plan(nil, nil)
	if err != nil || !p.AggShuffle {
		t.Fatalf("aggshuffle plan = %+v, %v", p, err)
	}
}

func TestDelayStagePlanProducesSchedule(t *testing.T) {
	c := cluster.NewM4LargeCluster(10)
	j := workload.LDA(c, 0.2)
	p, err := DelayStage{}.Plan(c, j)
	if err != nil {
		t.Fatal(err)
	}
	if p.Schedule == nil {
		t.Fatal("DelayStage must carry its Alg. 1 schedule")
	}
	if p.Schedule.Makespan > p.Schedule.StockMakespan {
		t.Fatal("schedule regressed")
	}
}

func TestRunJobAllStrategies(t *testing.T) {
	c := cluster.NewM4LargeCluster(10)
	j := workload.CosineSimilarity(c, 0.1)
	var jcts []float64
	for _, s := range []Strategy{Spark{}, AggShuffle{}, DelayStage{}, Fuxi{}} {
		res, err := runJob(c, j, s, sim.Options{TrackNode: -1})
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		jcts = append(jcts, res.JCT(0))
	}
	spark, agg, delay := jcts[0], jcts[1], jcts[2]
	if delay > spark*1.005 {
		t.Errorf("DelayStage %.1f must not lose to Spark %.1f", delay, spark)
	}
	if agg > spark*1.05 {
		t.Errorf("AggShuffle %.1f should be within 5%% of Spark %.1f", agg, spark)
	}
	if jcts[3] != spark {
		t.Errorf("Fuxi %.1f must equal Spark %.1f in the symmetric model", jcts[3], spark)
	}
}
