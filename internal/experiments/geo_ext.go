package experiments

import (
	"delaystage/internal/cluster"
	"delaystage/internal/core"
	"delaystage/internal/geo"
	"delaystage/internal/workload"
)

// GeoRow is one WAN-bandwidth point of the geo-extension experiment.
type GeoRow struct {
	WANMBps    float64
	StockJCT   float64
	DelayJCT   float64
	GainP      float64
	WANUtilP   float64 // WAN utilization under DelayStage
	DelayCount int
}

// GeoResult carries the geo-extension sweep.
type GeoResult struct {
	Rows []GeoRow
}

// GeoExtension evaluates the Sec. 6 future-work direction the repo
// implements: DelayStage on a geo-distributed TriangleCount spread over
// three datacenters, swept across WAN bandwidths. The interesting shape:
// at generous WAN the gains approach the single-cluster ones; as WAN
// becomes the single bottleneck, every schedule serializes on it and the
// delay gains shrink — delaying cannot create bandwidth.
func GeoExtension(cfg Config) (*GeoResult, error) {
	cfg.defaults()
	dc := cluster.Node{ID: 0, Executors: 32, NetBW: cluster.MBps(10000), DiskBW: cluster.MBps(2000)}
	ref := &cluster.Cluster{Nodes: []cluster.Node{dc}}
	wl := workload.TriangleCount(ref, 0.3*cfg.Scale)
	placement, err := geo.SpreadPlacement(wl, 3)
	if err != nil {
		return nil, err
	}
	job := &geo.Job{Workload: wl, Placement: placement}

	out := &GeoResult{}
	for _, wan := range []float64{2000, 800, 400, 150} {
		topo := geo.UniformWAN(3, dc, cluster.MBps(wan))
		stock, err := geo.Run(topo, job, nil)
		if err != nil {
			return nil, err
		}
		sched, err := geo.Plan(core.Options{MaxCandidates: 16}, topo, job)
		if err != nil {
			return nil, err
		}
		delayed, err := geo.Run(topo, job, sched.Delays)
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, GeoRow{
			WANMBps:    wan,
			StockJCT:   stock.JCT(0),
			DelayJCT:   delayed.JCT(0),
			GainP:      100 * (stock.JCT(0) - delayed.JCT(0)) / stock.JCT(0),
			WANUtilP:   geo.WANUtil(topo, job, delayed.JCT(0)) * 100,
			DelayCount: len(sched.Delays),
		})
	}
	fprintf(cfg.W, "== Geo extension (Sec. 6 future work): TriangleCount over 3 DCs ==\n")
	fprintf(cfg.W, "%12s %12s %12s %8s %10s %8s\n", "WAN MB/s", "stock JCT", "delay JCT", "gain", "WAN util", "#delays")
	for _, r := range out.Rows {
		fprintf(cfg.W, "%12.0f %11.1fs %11.1fs %7.1f%% %9.1f%% %8d\n",
			r.WANMBps, r.StockJCT, r.DelayJCT, r.GainP, r.WANUtilP, r.DelayCount)
	}
	fprintf(cfg.W, "(not in the paper — its Sec. 6 commits to this extension; gains shrink as the WAN becomes the lone bottleneck)\n\n")

	// Placement × delays: the Sec. 6 "incorporate DelayStage into the
	// placement works" combination, at one WAN setting.
	topo := geo.UniformWAN(3, dc, cluster.MBps(400))
	fprintf(cfg.W, "placement × delays at WAN 400 MB/s:\n")
	fprintf(cfg.W, "%-20s %12s %12s %14s\n", "placement", "plain JCT", "+delays", "WAN bytes (GB)")
	for _, name := range geo.PlacementNames() {
		p, err := geo.BuildPlacement(name, topo, wl)
		if err != nil {
			return nil, err
		}
		gj := &geo.Job{Workload: wl, Placement: p}
		plain, err := geo.Run(topo, gj, nil)
		if err != nil {
			return nil, err
		}
		sched, err := geo.Plan(core.Options{MaxCandidates: 16}, topo, gj)
		if err != nil {
			return nil, err
		}
		delayed, err := geo.Run(topo, gj, sched.Delays)
		if err != nil {
			return nil, err
		}
		fprintf(cfg.W, "%-20s %11.1fs %11.1fs %14.1f\n",
			name, plain.JCT(0), delayed.JCT(0), float64(geo.WANBytes(topo, gj))/(1<<30))
	}
	fprintf(cfg.W, "\n")
	return out, nil
}
