package geo

import (
	"testing"

	"delaystage/internal/cluster"
	"delaystage/internal/core"
	"delaystage/internal/workload"
)

func TestGreedyWANPlacementReducesTraffic(t *testing.T) {
	tp := topo3(400)
	ref := refCluster()
	wl := workload.TriangleCount(ref, 0.3)
	spread, err := SpreadPlacement(wl, 3)
	if err != nil {
		t.Fatal(err)
	}
	greedy, err := GreedyWANPlacement(tp, wl)
	if err != nil {
		t.Fatal(err)
	}
	sj := &Job{Workload: wl, Placement: spread}
	gj := &Job{Workload: wl, Placement: greedy}
	if WANBytes(tp, gj) > WANBytes(tp, sj) {
		t.Fatalf("greedy placement moved more WAN bytes (%d) than spread (%d)",
			WANBytes(tp, gj), WANBytes(tp, sj))
	}
}

func TestGreedyPlacementSpeedsJob(t *testing.T) {
	tp := topo3(300)
	ref := refCluster()
	wl := workload.CosineSimilarity(ref, 0.3)
	spread, _ := SpreadPlacement(wl, 3)
	greedy, err := GreedyWANPlacement(tp, wl)
	if err != nil {
		t.Fatal(err)
	}
	sres, err := Run(tp, &Job{Workload: wl, Placement: spread}, nil)
	if err != nil {
		t.Fatal(err)
	}
	gres, err := Run(tp, &Job{Workload: wl, Placement: greedy}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if gres.JCT(0) > sres.JCT(0) {
		t.Fatalf("WAN-aware placement slower: %.1f vs %.1f", gres.JCT(0), sres.JCT(0))
	}
}

func TestBottleneckAwareOnHeterogeneousWAN(t *testing.T) {
	// DC2's inbound links are crippled; the bottleneck-aware pass must
	// route join stages away from it even when byte counts tie.
	tp := topo3(800)
	tp.WAN[0][2] = cluster.MBps(50)
	tp.WAN[1][2] = cluster.MBps(50)
	ref := refCluster()
	wl := workload.SQLJoin(ref, 0.3)
	base, err := GreedyWANPlacement(tp, wl)
	if err != nil {
		t.Fatal(err)
	}
	improved, err := BottleneckAwarePlacement(tp, wl, base)
	if err != nil {
		t.Fatal(err)
	}
	bres, err := Run(tp, &Job{Workload: wl, Placement: base}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ires, err := Run(tp, &Job{Workload: wl, Placement: improved}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ires.JCT(0) > bres.JCT(0)*1.001 {
		t.Fatalf("bottleneck-aware placement regressed: %.1f vs %.1f", ires.JCT(0), bres.JCT(0))
	}
}

func TestBuildPlacementNames(t *testing.T) {
	tp := topo3(300)
	wl := workload.LDA(refCluster(), 0.2)
	for _, name := range PlacementNames() {
		p, err := BuildPlacement(name, tp, wl)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		j := &Job{Workload: wl, Placement: p}
		if err := j.Validate(tp); err != nil {
			t.Fatalf("%s placement invalid: %v", name, err)
		}
	}
	if _, err := BuildPlacement("bogus", tp, wl); err == nil {
		t.Fatal("unknown placement must error")
	}
}

// Placement and delay scheduling compose: for each placement, DelayStage
// must not regress, and the combination (good placement + delays) must be
// the fastest overall — the joint effectiveness the paper's Sec. 6
// speculates about.
func TestPlacementDelayComposition(t *testing.T) {
	tp := topo3(400)
	ref := refCluster()
	wl := workload.TriangleCount(ref, 0.25)
	type outcome struct {
		name  string
		plain float64
		delay float64
	}
	var results []outcome
	for _, name := range PlacementNames() {
		p, err := BuildPlacement(name, tp, wl)
		if err != nil {
			t.Fatal(err)
		}
		j := &Job{Workload: wl, Placement: p}
		plain, err := Run(tp, j, nil)
		if err != nil {
			t.Fatal(err)
		}
		sched, err := Plan(core.Options{MaxCandidates: 12}, tp, j)
		if err != nil {
			t.Fatal(err)
		}
		delayed, err := Run(tp, j, sched.Delays)
		if err != nil {
			t.Fatal(err)
		}
		if delayed.JCT(0) > plain.JCT(0)*1.001 {
			t.Errorf("%s: delays regressed (%.1f vs %.1f)", name, delayed.JCT(0), plain.JCT(0))
		}
		results = append(results, outcome{name, plain.JCT(0), delayed.JCT(0)})
		t.Logf("%-18s plain %8.1f  +delays %8.1f", name, plain.JCT(0), delayed.JCT(0))
	}
	// The best combined result must beat spread-without-delays.
	best := results[0].delay
	for _, r := range results {
		if r.delay < best {
			best = r.delay
		}
	}
	if best >= results[0].plain {
		t.Errorf("placement+delays (%.1f) should beat spread-no-delays (%.1f)", best, results[0].plain)
	}
}
