// Geo: the paper's Sec. 6 future-work direction, implemented — DelayStage
// on a geo-distributed job. Three datacenters with scarce WAN links run
// the TriangleCount DAG spread across them; stage delays interleave WAN
// transfers with remote computation.
//
//	go run ./examples/geo [-wan-mbps 400]
package main

import (
	"flag"
	"fmt"
	"log"

	"delaystage/internal/cluster"
	"delaystage/internal/core"
	"delaystage/internal/geo"
	"delaystage/internal/workload"
)

func main() {
	wanMBps := flag.Float64("wan-mbps", 400, "WAN link bandwidth (MB/s); intra-DC is 10,000")
	flag.Parse()

	dc := cluster.Node{ID: 0, Executors: 32, NetBW: cluster.MBps(10000), DiskBW: cluster.MBps(2000)}
	topo := geo.UniformWAN(3, dc, cluster.MBps(*wanMBps))
	ref := &cluster.Cluster{Nodes: []cluster.Node{dc}}

	wl := workload.TriangleCount(ref, 0.3)
	placement, err := geo.SpreadPlacement(wl, 3)
	if err != nil {
		log.Fatal(err)
	}
	job := &geo.Job{Workload: wl, Placement: placement}
	fmt.Printf("TriangleCount across 3 DCs (WAN %v MB/s): %d bytes cross WAN\n",
		*wanMBps, geo.WANBytes(topo, job))

	stock, err := geo.Run(topo, job, nil)
	if err != nil {
		log.Fatal(err)
	}
	sched, err := geo.Plan(core.Options{}, topo, job)
	if err != nil {
		log.Fatal(err)
	}
	delayed, err := geo.Run(topo, job, sched.Delays)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("submit-when-ready JCT: %7.1f s  (WAN util %.1f%%)\n",
		stock.JCT(0), geo.WANUtil(topo, job, stock.JCT(0))*100)
	fmt.Printf("geo DelayStage JCT:    %7.1f s  (WAN util %.1f%%)  X=%v\n",
		delayed.JCT(0), geo.WANUtil(topo, job, delayed.JCT(0))*100, sched.Delays)
	fmt.Printf("speedup: %.1f%%  (Alg. 1 in %v over %d evaluations)\n",
		100*(stock.JCT(0)-delayed.JCT(0))/stock.JCT(0), sched.ComputeTime, sched.Evaluations)
}
