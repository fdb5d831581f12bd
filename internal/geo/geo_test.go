package geo

import (
	"math"
	"testing"

	"delaystage/internal/cluster"
	"delaystage/internal/core"
	"delaystage/internal/dag"
	"delaystage/internal/sim"
	"delaystage/internal/workload"
)

// dcNode builds a standard datacenter: 32 executors, 10 GB/s intra-DC
// aggregate, 2 GB/s disk.
func dcNode(id int) cluster.Node {
	return cluster.Node{ID: id, Executors: 32, NetBW: cluster.MBps(10000), DiskBW: cluster.MBps(2000)}
}

// topo3 is three identical DCs joined by narrow WAN links.
func topo3(wanMBps float64) *Topology {
	return UniformWAN(3, dcNode(0), cluster.MBps(wanMBps))
}

// refCluster mirrors one DC as a single-node cluster for FromPhases sizing.
func refCluster() *cluster.Cluster {
	n := dcNode(0)
	return &cluster.Cluster{Nodes: []cluster.Node{n}}
}

// chainJob builds parent(dc0) → child(dc1), sized via phase specs on the
// reference DC.
func chainJob(t *testing.T) *Job {
	t.Helper()
	ref := refCluster()
	g := dag.New()
	g.MustAdd(dag.Stage{ID: 1})
	g.MustAdd(dag.Stage{ID: 2, Parents: []dag.StageID{1}})
	p := workload.FromPhases(ref, workload.PhaseSpec{ReadSec: 10, ComputeSec: 30, WriteSec: 5})
	wl := &workload.Job{Name: "geo-chain", Graph: g, Profiles: map[dag.StageID]workload.StageProfile{1: p, 2: p}}
	if err := wl.Validate(); err != nil {
		t.Fatal(err)
	}
	return &Job{Workload: wl, Placement: Placement{1: 0, 2: 1}}
}

func TestTopologyValidate(t *testing.T) {
	if err := topo3(100).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := &Topology{}
	if err := bad.Validate(); err == nil {
		t.Fatal("empty topology must fail")
	}
	tp := topo3(100)
	tp.WAN[0][1] = 0
	if err := tp.Validate(); err == nil {
		t.Fatal("zero WAN link must fail")
	}
	tp = topo3(100)
	tp.WAN = tp.WAN[:2]
	if err := tp.Validate(); err == nil {
		t.Fatal("ragged WAN matrix must fail")
	}
	tp = topo3(100)
	tp.DCs[1].ID = 0
	if err := tp.Validate(); err == nil {
		t.Fatal("duplicate DC IDs must fail")
	}
}

func TestJobValidate(t *testing.T) {
	tp := topo3(100)
	j := chainJob(t)
	if err := j.Validate(tp); err != nil {
		t.Fatal(err)
	}
	delete(j.Placement, 2)
	if err := j.Validate(tp); err == nil {
		t.Fatal("missing placement must fail")
	}
	j = chainJob(t)
	j.Placement[1] = 99
	if err := j.Validate(tp); err == nil {
		t.Fatal("out-of-range DC must fail")
	}
}

// The WAN link gates a cross-DC read: halving WAN bandwidth roughly
// doubles the child's read time.
func TestWANGatesCrossDCRead(t *testing.T) {
	j := chainJob(t)
	fast, err := Run(topo3(1000), j, nil)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := Run(topo3(500), j, nil)
	if err != nil {
		t.Fatal(err)
	}
	fr := fast.Timeline(0, 2).ReadEnd - fast.Timeline(0, 2).Start
	sr := slow.Timeline(0, 2).ReadEnd - slow.Timeline(0, 2).Start
	if math.Abs(sr/fr-2) > 0.1 {
		t.Fatalf("halving WAN should double the read: %.2f vs %.2f", fr, sr)
	}
	if wb := WANBytes(topo3(500), j); wb != j.Workload.Profiles[2].ShuffleIn {
		t.Fatalf("WAN bytes %d, want the child's full input", wb)
	}
}

// Co-located placement avoids WAN entirely and is faster.
func TestColocationAvoidsWAN(t *testing.T) {
	j := chainJob(t)
	remote, err := Run(topo3(200), j, nil)
	if err != nil {
		t.Fatal(err)
	}
	j.Placement[2] = 0
	local, err := Run(topo3(200), j, nil)
	if err != nil {
		t.Fatal(err)
	}
	if wb := WANBytes(topo3(200), j); wb != 0 {
		t.Fatalf("co-located job moved %d WAN bytes", wb)
	}
	if local.JCT(0) >= remote.JCT(0) {
		t.Fatalf("co-location must be faster: %.1f vs %.1f", local.JCT(0), remote.JCT(0))
	}
}

// Eq. (1): a stage reading from two parents finishes its read when the
// slowest link does.
func TestMaxOverLinks(t *testing.T) {
	ref := refCluster()
	g := dag.New()
	g.MustAdd(dag.Stage{ID: 1})
	g.MustAdd(dag.Stage{ID: 2})
	g.MustAdd(dag.Stage{ID: 3, Parents: []dag.StageID{1, 2}})
	p := workload.FromPhases(ref, workload.PhaseSpec{ReadSec: 5, ComputeSec: 10, WriteSec: 2})
	wl := &workload.Job{Name: "fanin", Graph: g, Profiles: map[dag.StageID]workload.StageProfile{1: p, 2: p, 3: p}}
	if err := wl.Validate(); err != nil {
		t.Fatal(err)
	}
	// Parents in DC 0 and DC 1; child in DC 2. Link 1→2 is 4× slower.
	tp := topo3(800)
	tp.WAN[1][2] = cluster.MBps(200)
	j := &Job{Workload: wl, Placement: Placement{1: 0, 2: 1, 3: 2}}
	res, err := Run(tp, j, nil)
	if err != nil {
		t.Fatal(err)
	}
	tl := res.Timeline(0, 3)
	// Half the input crosses each link; the slow link needs
	// 0.5·In / 200MBps seconds and must gate the read.
	in := float64(wl.Profiles[3].ShuffleIn)
	wantSlow := 0.5 * in / cluster.MBps(200)
	got := tl.ReadEnd - tl.Start
	if math.Abs(got-wantSlow) > wantSlow*0.05 {
		t.Fatalf("read %.2fs, want ≈%.2fs (slowest link)", got, wantSlow)
	}
}

func TestSpreadPlacement(t *testing.T) {
	ref := refCluster()
	wl := workload.LDA(ref, 0.1)
	p, err := SpreadPlacement(wl, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(p) != wl.Graph.Len() {
		t.Fatalf("placement covers %d of %d stages", len(p), wl.Graph.Len())
	}
	for id, dc := range p {
		if dc < 0 || dc > 2 {
			t.Fatalf("stage %d in DC %d", id, dc)
		}
	}
}

func TestDelaysHonoredGeo(t *testing.T) {
	j := chainJob(t)
	res, err := Run(topo3(500), j, map[dag.StageID]float64{1: 25})
	if err != nil {
		t.Fatal(err)
	}
	tl := res.Timeline(0, 1)
	if math.Abs(tl.Start-tl.Ready-25) > 1e-6 {
		t.Fatalf("delay not honored: start %.2f ready %.2f", tl.Start, tl.Ready)
	}
}

func TestRunValidation(t *testing.T) {
	j := chainJob(t)
	if _, err := Run(nil, j, nil); err == nil {
		t.Fatal("nil topology must error")
	}
	if _, err := Run(topo3(100), j, map[dag.StageID]float64{1: -1}); err == nil {
		t.Fatal("negative delay must error")
	}
}

// The headline of the geo extension: on a parallel job spread across DCs,
// DelayStage's computed delays interleave WAN transfers with computation
// and shorten the JCT versus submit-when-ready.
func TestGeoDelayStageImproves(t *testing.T) {
	ref := refCluster()
	wl := workload.TriangleCount(ref, 0.3)
	place, err := SpreadPlacement(wl, 3)
	if err != nil {
		t.Fatal(err)
	}
	j := &Job{Workload: wl, Placement: place}
	tp := topo3(400) // WAN 25× scarcer than intra-DC
	sched, err := Plan(core.Options{MaxCandidates: 16}, tp, j)
	if err != nil {
		t.Fatal(err)
	}
	stock, err := Run(tp, j, nil)
	if err != nil {
		t.Fatal(err)
	}
	delayed, err := Run(tp, j, sched.Delays)
	if err != nil {
		t.Fatal(err)
	}
	if delayed.JCT(0) > stock.JCT(0)*1.001 {
		t.Fatalf("geo DelayStage regressed: %.1f vs %.1f", delayed.JCT(0), stock.JCT(0))
	}
	// The plan prices candidates with Run's own simulation.
	if sched.Makespan != delayed.JCT(0) || sched.StockMakespan != stock.JCT(0) {
		t.Fatalf("plan predicts %v (stock %v), Run gives %v (stock %v)",
			sched.Makespan, sched.StockMakespan, delayed.JCT(0), stock.JCT(0))
	}
	gain := 100 * (stock.JCT(0) - delayed.JCT(0)) / stock.JCT(0)
	t.Logf("geo: stock %.1f → delayed %.1f (−%.1f%%), X=%v, WAN util %.1f%%→%.1f%%",
		stock.JCT(0), delayed.JCT(0), gain, sched.Delays, WANUtil(tp, j, stock.JCT(0))*100, WANUtil(tp, j, delayed.JCT(0))*100)
	if gain < 3 {
		t.Fatalf("expected a real improvement, got %.1f%%", gain)
	}
}

func TestPlanSequentialJob(t *testing.T) {
	j := chainJob(t) // pure chain: no parallel stages
	sched, err := Plan(core.Options{}, topo3(300), j)
	if err != nil {
		t.Fatal(err)
	}
	if len(sched.Delays) != 0 || len(sched.K) != 0 {
		t.Fatalf("chain must get no delays: %+v", sched)
	}
}

// linkBytes derives the bytes the simulation moves over links from
// existing Result fields: every read enters the cluster-wide net integral
// (AvgNetRate·Makespan), while only reads over a node's own NIC enter that
// node's tracked NetRate series — a link read never does. The difference
// is the link traffic.
func linkBytes(t *testing.T, opt sim.Options, runs []sim.JobRun) float64 {
	t.Helper()
	run := func(track int) *sim.Result {
		opt.TrackNode = track
		res, err := sim.Run(opt, runs)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	all := run(-1)
	total := all.AvgNetRate * all.Makespan
	for dc := range opt.Cluster.Nodes {
		s := run(dc).Node.NetRate
		for i := 0; i+1 < len(s); i++ {
			total -= float64(s[i].V * (s[i+1].T - s[i].T))
		}
	}
	return total
}

// The static WANBytes matches the traffic the simulation moves over WAN
// links, on a chain and on a spread fan-in job.
func TestWANBytesAccounting(t *testing.T) {
	tp := topo3(300)
	tc := workload.TriangleCount(refCluster(), 0.3)
	spread, err := SpreadPlacement(tc, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range []*Job{chainJob(t), {Workload: tc, Placement: spread}} {
		viaFn := WANBytes(tp, j)
		simulated := linkBytes(t, tp.simOptions(), []sim.JobRun{{Job: j.Workload, Placement: j.Placement}})
		// WANBytes truncates each parent's share to whole bytes.
		if viaFn == 0 || math.Abs(simulated-float64(viaFn)) > float64(j.Workload.Graph.Len()) {
			t.Fatalf("%s: static WANBytes %d != simulated %.1f", j.Workload.Name, viaFn, simulated)
		}
	}
}

func TestGeoDeterminism(t *testing.T) {
	j := chainJob(t)
	a, err := Run(topo3(300), j, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(topo3(300), j, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.JCT(0) != b.JCT(0) || a.Events != b.Events {
		t.Fatal("geo sim must be deterministic")
	}
}
