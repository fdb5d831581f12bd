package attr

import (
	"bytes"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"delaystage/internal/cluster"
	"delaystage/internal/faults"
	"delaystage/internal/golden"
	"delaystage/internal/obs"
	"delaystage/internal/scheduler"
	"delaystage/internal/sim"
	"delaystage/internal/workload"
)

// runWithStrategy simulates TriangleCount under strat and returns the
// attribution context, the collected events and the sim result.
func runWithStrategy(t *testing.T, strat scheduler.Strategy) (Context, []sim.Event, *sim.Result) {
	t.Helper()
	c := cluster.NewM4LargeCluster(10)
	job := workload.PaperWorkloads(c, 0.3)["TriangleCount"]
	if job == nil {
		t.Fatal("no TriangleCount workload")
	}
	p, err := strat.Plan(c, job)
	if err != nil {
		t.Fatal(err)
	}
	col := &Collector{}
	res, err := sim.Run(sim.Options{Cluster: c, TrackNode: -1, AggShuffle: p.AggShuffle,
		Watchdog: p.Watchdog, Observer: col}, []sim.JobRun{{Job: job, Delays: p.Delays}})
	if err != nil {
		t.Fatal(err)
	}
	return Context{Cluster: c, Jobs: []*workload.Job{job}}, col.Events, res
}

// TestReportGoldens pins the full bottleneck report for TriangleCount
// under each strategy. These files are the human-facing contract of the
// report format; they also document how the contention profile shifts
// between strategies.
func TestReportGoldens(t *testing.T) {
	for _, tc := range []struct {
		file  string
		strat scheduler.Strategy
	}{
		{"report_spark.golden.txt", scheduler.Spark{}},
		{"report_aggshuffle.golden.txt", scheduler.AggShuffle{}},
		{"report_fuxi.golden.txt", scheduler.Fuxi{}},
		{"report_delaystage.golden.txt", scheduler.DelayStage{}},
	} {
		t.Run(tc.file, func(t *testing.T) {
			ctx, events, _ := runWithStrategy(t, tc.strat)
			rep, err := Build(ctx, events)
			if err != nil {
				t.Fatal(err)
			}
			golden.Check(t, filepath.Join("testdata", tc.file), []byte(rep.Render()))
		})
	}
}

// TestDelayStageMovesContention is the paper's thesis in one assertion:
// on TriangleCount, DelayStage's interleaved schedule must show strictly
// less total contention and a strictly higher interleaving-efficiency
// score than stock Spark — the delays move stages out of each other's
// way rather than merely reshuffling the waiting.
func TestDelayStageMovesContention(t *testing.T) {
	ctxS, evS, resS := runWithStrategy(t, scheduler.Spark{})
	repS, err := Build(ctxS, evS)
	if err != nil {
		t.Fatal(err)
	}
	ctxD, evD, resD := runWithStrategy(t, scheduler.DelayStage{})
	repD, err := Build(ctxD, evD)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("spark:      makespan %.2f  contention %.2f  efficiency %.4f",
		resS.Makespan, repS.TotalContention, repS.Efficiency)
	t.Logf("delaystage: makespan %.2f  contention %.2f  efficiency %.4f",
		resD.Makespan, repD.TotalContention, repD.Efficiency)
	if repS.TotalContention <= 0 {
		t.Fatal("spark run shows no contention at all — the attribution found nothing to move")
	}
	if repD.TotalContention >= repS.TotalContention {
		t.Errorf("delaystage contention %.2f s not below spark's %.2f s",
			repD.TotalContention, repS.TotalContention)
	}
	if repD.Efficiency <= repS.Efficiency {
		t.Errorf("delaystage efficiency %.4f not above spark's %.4f",
			repD.Efficiency, repS.Efficiency)
	}
}

// TestReportDeterministicUnderFaults: with an identical fault plan, two
// runs must attribute identically — and the report must surface retries.
func TestReportDeterministicUnderFaults(t *testing.T) {
	c := cluster.NewM4LargeCluster(5)
	job := workload.PaperWorkloads(c, 0.3)["LDA"]
	build := func() string {
		inj, err := faults.NewInjector(faults.FaultPlan{
			Seed: 7, TaskFailureProb: 0.05,
			Crashes: []faults.NodeCrash{{Node: 1, At: 40}},
		})
		if err != nil {
			t.Fatal(err)
		}
		col := &Collector{}
		if _, err := sim.Run(sim.Options{Cluster: c, TrackNode: -1, Faults: inj,
			MaxAttempts: 8, Observer: col}, []sim.JobRun{{Job: job}}); err != nil {
			t.Fatal(err)
		}
		rep, err := Build(Context{Cluster: c, Jobs: []*workload.Job{job}}, col.Events)
		if err != nil {
			t.Fatal(err)
		}
		return rep.Render()
	}
	a, b := build(), build()
	if a != b {
		t.Error("fault-injected report not deterministic across identical runs")
	}
	// The injected failures must be visible in the decomposition.
	if !bytes.Contains([]byte(a), []byte("retries=")) {
		t.Error("report of a faulty run mentions no retries")
	}
}

// TestCriticalPathStructure: the extracted path is a root-to-final-stage
// chain of parent→child edges, its last stage ends the job, and every
// member is flagged Critical with the final stage at zero slack.
func TestCriticalPathStructure(t *testing.T) {
	ctx, events, res := runWithStrategy(t, scheduler.Spark{})
	rep, err := Build(ctx, events)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Paths) != 1 {
		t.Fatalf("got %d critical paths, want 1", len(rep.Paths))
	}
	path := rep.Paths[0]
	if len(path.Stages) == 0 {
		t.Fatal("empty critical path")
	}
	g := ctx.Jobs[0].Graph
	if len(g.Stage(path.Stages[0]).Parents) != 0 {
		t.Errorf("path starts at non-root stage %d", path.Stages[0])
	}
	for i := 1; i < len(path.Stages); i++ {
		isParent := false
		for _, p := range g.Stage(path.Stages[i]).Parents {
			if p == path.Stages[i-1] {
				isParent = true
			}
		}
		if !isParent {
			t.Errorf("path edge %d->%d is not a DAG edge", path.Stages[i-1], path.Stages[i])
		}
	}
	final := rep.Stage(StageRef{0, path.Stages[len(path.Stages)-1]})
	if final.End != res.JobEnd[0] {
		t.Errorf("path ends at %.4f, job ends at %.4f", final.End, res.JobEnd[0])
	}
	if final.Slack != 0 {
		t.Errorf("final stage has slack %.4f, want 0", final.Slack)
	}
	for _, id := range path.Stages {
		if !rep.Stage(StageRef{0, id}).Critical {
			t.Errorf("path stage %d not flagged critical", id)
		}
	}
	// Off-path stages with positive slack must exist in a DAG with
	// parallel branches; their slack bounds extra tolerable delay.
	offPath := 0
	for i := range rep.Stages {
		s := &rep.Stages[i]
		if !s.Critical && s.Slack > 0 {
			offPath++
		}
	}
	if offPath == 0 {
		t.Error("no off-path stage has positive slack in a parallel DAG")
	}
}

// TestDecompositionSanity: for every stage, ideal ≤ actual + ε (sharing
// only slows stages down) and timeline fields agree with sim.Result.
func TestDecompositionSanity(t *testing.T) {
	ctx, events, res := runWithStrategy(t, scheduler.Spark{})
	rep, err := Build(ctx, events)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Stages) != len(res.Timelines) {
		t.Fatalf("%d attribution rows, %d timelines", len(rep.Stages), len(res.Timelines))
	}
	for i := range rep.Stages {
		s := &rep.Stages[i]
		tl := res.Timeline(s.Ref.Job, s.Ref.Stage)
		if tl == nil {
			t.Fatalf("no timeline for %v", s.Ref)
		}
		if s.Ready != tl.Ready || s.End != tl.End {
			t.Errorf("%v: events say ready/end %.4f/%.4f, result says %.4f/%.4f",
				s.Ref, s.Ready, s.End, tl.Ready, tl.End)
		}
		if s.Ideal <= 0 {
			t.Errorf("%v: non-positive ideal %.4f", s.Ref, s.Ideal)
		}
		if s.Ideal > s.Actual+1e-6 {
			t.Errorf("%v: ideal %.4f exceeds actual %.4f — isolation can't be slower",
				s.Ref, s.Ideal, s.Actual)
		}
	}
}

// TestOfflineMatchesLive: building from a decoded JSONL log must render
// byte-identically to building from the live collector — the core
// guarantee behind cmd/analyze.
func TestOfflineMatchesLive(t *testing.T) {
	ctx, events, _ := runWithStrategy(t, scheduler.DelayStage{})
	live, err := Build(ctx, events)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	l := obs.NewJSONL(&buf)
	for _, ev := range events {
		l.OnEvent(ev)
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	decoded, err := obs.ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	offline, err := Build(ctx, obs.EventsOfRun(decoded, -1))
	if err != nil {
		t.Fatal(err)
	}
	if live.Render() != offline.Render() {
		t.Error("offline report differs from live report")
	}
}

// TestLiveGauges: the Live observer tracks completions without perturbing
// the run, and Publish puts the report's per-resource contention wait on
// /metrics — the same number -report renders.
func TestLiveGauges(t *testing.T) {
	c := cluster.NewM4LargeCluster(5)
	job := workload.PaperWorkloads(c, 0.3)["TriangleCount"]
	reg := obs.NewRegistry()
	live := NewLive(reg, `strategy="spark"`)
	col := &Collector{}
	base, err := sim.Run(sim.Options{Cluster: c, TrackNode: -1}, []sim.JobRun{{Job: job}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(sim.Options{Cluster: c, TrackNode: -1, Observer: obs.Multi(col, live)},
		[]sim.JobRun{{Job: job}})
	if err != nil {
		t.Fatal(err)
	}
	if base.Makespan != res.Makespan {
		t.Errorf("live gauges perturbed the run: %.4f vs %.4f", base.Makespan, res.Makespan)
	}
	rep, err := Build(Context{Cluster: c, Jobs: []*workload.Job{job}}, col.Events)
	if err != nil {
		t.Fatal(err)
	}
	live.Publish(rep)
	var sb bytes.Buffer
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`attr_sim_seconds{strategy="spark"} `,
		`attr_stages_completed_total{strategy="spark"} `,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing series %q in exposition:\n%s", want, out)
		}
	}
	netWait := 0.0
	for i := range rep.Stages {
		netWait += rep.Stages[i].Wait[sim.ResNet]
	}
	if netWait <= 0 {
		t.Fatalf("report shows no net contention (%g) — the check below would be vacuous", netWait)
	}
	const series = `attr_contention_wait_seconds{res="net",strategy="spark"} `
	_, after, ok := strings.Cut(out, "\n"+series)
	if !ok {
		t.Fatalf("missing series %q in exposition:\n%s", series, out)
	}
	line, _, _ := strings.Cut(after, "\n")
	got, err := strconv.ParseFloat(line, 64)
	if err != nil {
		t.Fatal(err)
	}
	if got != netWait {
		t.Errorf("published net contention wait %v, report says %v", got, netWait)
	}
}

// TestFaultSummary: a chaos run (machine crashes, stragglers, speculation,
// blacklisting) must produce a failure section whose counters match the
// engine's own, and a fault-free run must produce none — the report only
// talks about failures when there were some.
func TestFaultSummary(t *testing.T) {
	c := cluster.NewM4LargeCluster(8)
	job := workload.PaperWorkloads(c, 0.3)["LDA"]
	inj, err := faults.NewInjector(faults.FaultPlan{
		Seed: 5, TaskFailureProb: 0.1, StragglerFrac: 0.3, StragglerFactor: 3,
		NodeMTTF: 500, MTTFHorizon: 80,
	})
	if err != nil {
		t.Fatal(err)
	}
	col := &Collector{}
	res, err := sim.Run(sim.Options{Cluster: c, TrackNode: -1, Faults: inj,
		MaxAttempts: 10, Speculation: true, BlacklistAfter: 2, Observer: col},
		[]sim.JobRun{{Job: job}})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Build(Context{Cluster: c, Jobs: []*workload.Job{job}}, col.Events)
	if err != nil {
		t.Fatal(err)
	}
	f := rep.Faults
	if f == nil {
		t.Fatal("chaos run produced no fault summary")
	}
	if f.Retries != res.Retries {
		t.Errorf("retries %d, engine counted %d", f.Retries, res.Retries)
	}
	if f.SpecLaunched != res.SpecLaunched || f.SpecWins != res.SpecWins {
		t.Errorf("speculation %d/%d, engine counted %d/%d",
			f.SpecLaunched, f.SpecWins, res.SpecLaunched, res.SpecWins)
	}
	if len(f.Blacklisted) != res.Blacklisted {
		t.Errorf("blacklisted %v, engine counted %d", f.Blacklisted, res.Blacklisted)
	}
	if f.Retries > 0 && f.BackoffSeconds <= 0 {
		t.Error("retries happened but no backoff was accumulated")
	}
	if !bytes.Contains([]byte(rep.Render()), []byte("failures & mitigation")) {
		t.Error("rendered report is missing the failure section")
	}

	// Fault-free control: same workload, no injector.
	col2 := &Collector{}
	if _, err := sim.Run(sim.Options{Cluster: c, TrackNode: -1, Observer: col2},
		[]sim.JobRun{{Job: job}}); err != nil {
		t.Fatal(err)
	}
	rep2, err := Build(Context{Cluster: c, Jobs: []*workload.Job{job}}, col2.Events)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Faults != nil {
		t.Errorf("fault-free run produced a fault summary: %+v", rep2.Faults)
	}
	if bytes.Contains([]byte(rep2.Render()), []byte("failures & mitigation")) {
		t.Error("fault-free report renders a failure section")
	}
}
