package experiments

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"delaystage/internal/core"
	"delaystage/internal/replay"
)

// testCfg keeps experiment tests fast: small scale, few jobs, 2 reps.
func testCfg() Config {
	return Config{Scale: 0.15, Nodes: 10, TraceJobs: 120, Reps: 2, Seed: 7}
}

func TestFig2(t *testing.T) {
	var buf bytes.Buffer
	cfg := testCfg()
	cfg.W = &buf
	r, err := Fig2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Stages.N() != cfg.TraceJobs {
		t.Fatalf("CDF over %d jobs, want %d", r.Stages.N(), cfg.TraceJobs)
	}
	// Parallel-stage count never exceeds stage count: CDF dominance.
	for _, x := range []float64{2, 5, 10, 50} {
		if r.ParallelStages.At(x) < r.Stages.At(x)-1e-9 {
			t.Errorf("P(#par≤%v) < P(#stg≤%v): parallel CDF must dominate", x, x)
		}
	}
	if s := r.Summary; s.JobsWithParallelShare < 0.5 || s.JobsWithParallelShare > 0.85 {
		t.Errorf("jobs-with-parallel share %.3f implausible", s.JobsWithParallelShare)
	}
	if !strings.Contains(buf.String(), "Fig. 2") {
		t.Error("missing rendered header")
	}
}

func TestFig3(t *testing.T) {
	r, err := Fig3(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	if r.MeanFrac < 50 || r.MeanFrac > 100 {
		t.Fatalf("mean parallel fraction %.1f%% implausible (paper 82.3%%)", r.MeanFrac)
	}
}

func TestFig4(t *testing.T) {
	r, err := Fig4(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.ClusterCPU) == 0 || len(r.NodeCPU) == 0 {
		t.Fatal("missing series")
	}
	for _, v := range r.ClusterCPU {
		if v < 0 || v > 1.01 {
			t.Fatalf("cluster CPU %v out of range", v)
		}
	}
	// A single machine group must swing more than the cluster average.
	varOf := func(xs []float64) float64 {
		m, s := 0.0, 0.0
		for _, x := range xs {
			m += x
		}
		m /= float64(len(xs))
		for _, x := range xs {
			s += float64((x - m) * (x - m))
		}
		return s / float64(len(xs))
	}
	if varOf(r.NodeCPU) < varOf(r.ClusterCPU) {
		t.Error("one machine should fluctuate more than the cluster average")
	}
}

func TestFig5(t *testing.T) {
	r, err := Fig5(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	if r.JCT <= 0 || len(r.CPU) == 0 {
		t.Fatal("empty result")
	}
	// The paper's observation: both resources have real idle periods under
	// stock Spark.
	if r.NetIdleSec <= 0 || r.CPUIdleSec <= 0 {
		t.Fatalf("expected idle periods, got net %.1fs cpu %.1fs", r.NetIdleSec, r.CPUIdleSec)
	}
}

func TestFig6(t *testing.T) {
	r, err := Fig6(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	if r.DelayedJCT >= r.StockJCT {
		t.Fatalf("delaying must shorten ALS: %.1f vs %.1f", r.DelayedJCT, r.StockJCT)
	}
	if r.CPUUtilDelayed <= r.CPUUtilStock {
		t.Error("CPU utilization must rise (paper: 52.3%→68.7%)")
	}
	if len(r.Delays) == 0 {
		t.Error("no stages delayed")
	}
	if !strings.Contains(r.StockGantt, "Stage 1") {
		t.Error("gantt missing stages")
	}
}

func TestFig10(t *testing.T) {
	r, err := Fig10(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("want 4 workloads, got %d", len(r.Rows))
	}
	minGain, maxGain := 1e9, -1e9
	for _, row := range r.Rows {
		if row.DelayMean >= row.SparkMean {
			t.Errorf("%s: DelayStage %.1f !< Spark %.1f", row.Workload, row.DelayMean, row.SparkMean)
		}
		if row.AggMean > row.SparkMean*1.02 {
			t.Errorf("%s: AggShuffle %.1f clearly worse than Spark %.1f", row.Workload, row.AggMean, row.SparkMean)
		}
		if row.DelayGainP < minGain {
			minGain = row.DelayGainP
		}
		if row.DelayGainP > maxGain {
			maxGain = row.DelayGainP
		}
		if row.Workload == "ConnectedComponents" && row.DelayGainP != minGain {
			t.Error("ConnectedComponents must have the smallest gain (paper: 17.5%)")
		}
	}
	// Paper band: 17.5%–41.3%. Allow slack for the small test scale.
	if minGain < 5 || maxGain > 60 {
		t.Errorf("gain band [%.1f%%, %.1f%%] far from the paper's [17.5, 41.3]", minGain, maxGain)
	}
}

func TestFig11AndFig16(t *testing.T) {
	r11, err := Fig11(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	if r11.Cosine.DelayJCT >= r11.Cosine.SparkJCT || r11.LDA.DelayJCT >= r11.LDA.SparkJCT {
		t.Error("DelayStage must win in breakdowns")
	}
	if len(r11.Cosine.DelayedStages) == 0 {
		t.Error("CosineSimilarity should delay stages")
	}
	r16, err := Fig16(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	if r16.Triangle.LongestPathGainP <= r16.Connected.LongestPathGainP {
		t.Errorf("TriangleCount region gain %.1f%% should exceed ConnectedComponents %.1f%% (paper: 42.0%% vs 28.2%%)",
			r16.Triangle.LongestPathGainP, r16.Connected.LongestPathGainP)
	}
}

func TestFig12AndFig17(t *testing.T) {
	r12, err := Fig12(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, panel := range []*UtilSeriesResult{r12.Cosine, r12.Triangle} {
		if len(panel.SparkNetMBps) == 0 || len(panel.DelayCPU) == 0 {
			t.Fatalf("%s: empty series", panel.Workload)
		}
	}
	r17, err := Fig17(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	if r17.Connected == nil || r17.LDA == nil {
		t.Fatal("missing panels")
	}
}

func TestFig13(t *testing.T) {
	r, err := Fig13(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.StockOcc) == 0 || len(r.DelayOcc) == 0 {
		t.Fatal("no occupancy data")
	}
	total := 0.0
	for _, series := range r.StockOcc {
		for _, v := range series {
			total += v
		}
	}
	if total <= 0 {
		t.Fatal("stock occupancy all zero")
	}
}

func TestFig14AndTable4(t *testing.T) {
	cfg := testCfg()
	cfg.TraceJobs = 80
	r, err := Fig14(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("want 4 strategies, got %d", len(r.Rows))
	}
	fuxi := r.Rows[0]
	def := r.Rows[2]
	if def.Strategy != "default DelayStage" {
		t.Fatalf("row order changed: %v", def.Strategy)
	}
	if def.MeanJCT >= fuxi.MeanJCT {
		t.Errorf("default DelayStage mean %.0f !< Fuxi %.0f (paper: 871 vs 1373)", def.MeanJCT, fuxi.MeanJCT)
	}
	for _, row := range r.Rows[1:] {
		if row.MeanJCT > fuxi.MeanJCT*1.02 {
			t.Errorf("%s mean %.0f worse than Fuxi %.0f", row.Strategy, row.MeanJCT, fuxi.MeanJCT)
		}
	}
	// Table 4: DelayStage variants must beat Fuxi on utilization too.
	if def.AvgCPUUtil <= fuxi.AvgCPUUtil || def.AvgNetUtil <= fuxi.AvgNetUtil {
		t.Errorf("default DelayStage util (%.3f/%.3f) must exceed Fuxi (%.3f/%.3f)",
			def.AvgCPUUtil, def.AvgNetUtil, fuxi.AvgCPUUtil, fuxi.AvgNetUtil)
	}
}

// TestFig14EvalSumsEverySchedule: Fig. 14's evaluation counters are the
// sum of every planned job's schedule counters, the two-tier scan ones
// included.
func TestFig14EvalSumsEverySchedule(t *testing.T) {
	cfg := testCfg()
	cfg.TraceJobs = 30
	r, err := Fig14(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rp := newFig14Replay(cfg)
	var want core.PlanStats
	for _, v := range replay.Variants {
		if v.Plain {
			continue
		}
		for i := 0; i < rp.Jobs(); i++ {
			_, s, err := rp.Plan(v, i)
			if err != nil {
				t.Fatal(err)
			}
			want.Add(s.PlanStats)
		}
	}
	if r.Eval.Bounded == 0 || r.Eval.Pruned == 0 {
		t.Errorf("Fig. 14 reports no scan counters: %+v", r.Eval)
	}
	if r.Eval != want {
		t.Errorf("Fig. 14 eval = %+v, want the per-job sum %+v", r.Eval, want)
	}
}

func TestFig15(t *testing.T) {
	r, err := Fig15(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) < 5 {
		t.Fatalf("too few points: %d", len(r.Points))
	}
	last := r.Points[len(r.Points)-1]
	if last.Stages != 186 {
		t.Fatalf("largest job %d, want 186 (the trace max)", last.Stages)
	}
	// Paper: ≤1.2 s at 186 stages. Give 5× slack for CI machines.
	if last.ModelMs > 6000 {
		t.Errorf("Alg.1 took %.0f ms at 186 stages; paper ≤1200 ms", last.ModelMs)
	}
}

func TestTable3(t *testing.T) {
	r, err := Table3(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("want 4 rows, got %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.DelayNetMean <= row.SparkNetMean {
			t.Errorf("%s: DelayStage net %.1f !> Spark %.1f (paper: +18.3%%…+81.8%%)",
				row.Workload, row.DelayNetMean, row.SparkNetMean)
		}
		if row.DelayCPUMean <= row.SparkCPUMean {
			t.Errorf("%s: DelayStage CPU %.1f !> Spark %.1f (paper: +7.2%%…+28.1%%)",
				row.Workload, row.DelayCPUMean, row.SparkCPUMean)
		}
	}
}

func TestAppendixA2(t *testing.T) {
	r, err := AppendixA2(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	if r.MaxE > 0.20 {
		t.Errorf("max prediction error %.1f%% exceeds 20%% (paper max 9.1%%)", r.MaxE*100)
	}
	if len(r.Errors) != 5 {
		t.Errorf("LDA has 5 stages, got %d errors", len(r.Errors))
	}
}

func TestOverhead(t *testing.T) {
	r, err := Overhead(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Rows {
		if row.Alg1Millis <= 0 || row.Alg1Millis > 10_000 {
			t.Errorf("%s: Alg.1 %.1f ms implausible", row.Workload, row.Alg1Millis)
		}
		if row.ProfilingSecs <= 0 {
			t.Errorf("%s: profiling time %.1f", row.Workload, row.ProfilingSecs)
		}
	}
}

func TestBreakdownUnknownWorkload(t *testing.T) {
	if _, err := Breakdown(testCfg(), "NoSuchWorkload"); err == nil {
		t.Fatal("unknown workload must error")
	}
}

func TestAllRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("every experiment is slow")
	}
	var buf bytes.Buffer
	cfg := testCfg()
	cfg.TraceJobs = 60
	cfg.W = &buf
	cfg.defaults()
	for _, r := range Runners() {
		if r.Name == "table4" { // rendered by fig14
			continue
		}
		if _, err := r.Run(cfg); err != nil {
			t.Fatalf("%s: %v", r.Name, err)
		}
	}
	for _, want := range []string{"Fig. 2", "Fig. 10", "Fig. 14", "Table 3", "Table 4", "A.2", "overhead"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestGeoExtension(t *testing.T) {
	r, err := GeoExtension(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("want 4 WAN points, got %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.DelayJCT > row.StockJCT*1.001 {
			t.Errorf("WAN %v: geo DelayStage regressed (%.1f vs %.1f)", row.WANMBps, row.DelayJCT, row.StockJCT)
		}
	}
	// Stock JCT must grow as WAN shrinks (the WAN matters at all).
	if r.Rows[len(r.Rows)-1].StockJCT <= r.Rows[0].StockJCT {
		t.Error("narrower WAN should slow the job")
	}
}

func TestOnlineExtension(t *testing.T) {
	r, err := OnlineExtension(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("want 3 strategies, got %d", len(r.Rows))
	}
	naive, online := r.Rows[0], r.Rows[2]
	if online.MeanJCT > naive.MeanJCT*1.01 {
		t.Errorf("online multi-job DelayStage regressed: %.1f vs %.1f", online.MeanJCT, naive.MeanJCT)
	}
}

func TestSensitivity(t *testing.T) {
	r, err := Sensitivity(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	// Gains must rise with the contention overhead α.
	if r.AlphaGain["0.35"][1] <= r.AlphaGain["0"][1] {
		t.Errorf("gain at α=0.35 (%.1f%%) should exceed α=0 (%.1f%%)",
			r.AlphaGain["0.35"][1], r.AlphaGain["0"][1])
	}
	// AggShuffle must be useless on homogeneous parents and useful on
	// skewed ones.
	if r.SkewAggGain["0"] > 1 {
		t.Errorf("AggShuffle gained %.1f%% at skew 0", r.SkewAggGain["0"])
	}
	if r.SkewAggGain["0.8"] < 1 {
		t.Errorf("AggShuffle gained only %.1f%% at skew 0.8", r.SkewAggGain["0.8"])
	}
	// Candidate budget: 32 candidates must not lose to 4.
	if r.CandidateGain[32][0] < r.CandidateGain[4][0]-1 {
		t.Errorf("more candidates lost quality: %v vs %v", r.CandidateGain[32], r.CandidateGain[4])
	}
}

// TestSensitivityResultJSON: -json marshals every experiment's result, so
// a populated SensitivityResult must survive an encoding/json round trip
// with every sweep key intact.
func TestSensitivityResultJSON(t *testing.T) {
	want := &SensitivityResult{
		SlotGain:      map[string]float64{},
		CandidateGain: map[int][2]float64{4: {1.5, 20}, 64: {3.25, 310}},
		AlphaGain:     map[string][2]float64{},
		SkewAggGain:   map[string]float64{},
	}
	for i, v := range []float64{0.5, 1, 2, 5, 10} {
		want.SlotGain[floatKey(v)] = float64(i) + 0.25
	}
	for i, v := range []float64{0, 0.12, 0.22, 0.35} {
		want.AlphaGain[floatKey(v)] = [2]float64{100 + float64(i), float64(i) / 3}
	}
	for i, v := range []float64{0, 0.2, 0.5, 0.8} {
		want.SkewAggGain[floatKey(v)] = -float64(i)
	}
	b, err := json.Marshal(want)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	for _, k := range []string{`"0.5"`, `"10"`, `"0.12"`, `"0.35"`, `"0.8"`} {
		if !bytes.Contains(b, []byte(k)) {
			t.Errorf("encoding lacks key %s: %s", k, b)
		}
	}
	var got SensitivityResult
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !reflect.DeepEqual(want, &got) {
		t.Errorf("round trip changed the result:\nwant %+v\ngot  %+v", want, &got)
	}
}
