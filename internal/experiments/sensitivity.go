package experiments

import (
	"strconv"
	"time"

	"delaystage/internal/core"
	"delaystage/internal/dag"
	"delaystage/internal/sim"
	"delaystage/internal/workload"
)

// SensitivityResult carries the parameter sweeps that justify the
// reproduction's main free parameters (DESIGN.md "Key design decisions").
//
// The float-valued sweeps are keyed by the swept value's decimal form
// (floatKey): encoding/json cannot marshal float map keys, and -json must.
type SensitivityResult struct {
	// Slot granularity sweep (CosineSimilarity): slot seconds → JCT gain %.
	SlotGain map[string]float64
	// Candidate budget sweep: MaxCandidates → (gain %, Alg. 1 ms).
	CandidateGain map[int][2]float64
	// Contention overhead sweep: α → (stock JCT, gain %).
	AlphaGain map[string][2]float64
	// AggShuffle skew sweep: parent skew → AggShuffle gain % over Spark
	// on a two-stage chain (generalizes the paper's LDA observation).
	SkewAggGain map[string]float64
}

// floatKey is the SensitivityResult map key of a swept value: its
// shortest round-tripping decimal form ("0.5", "10").
func floatKey(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Sensitivity sweeps the reproduction's free parameters. Not a paper
// artifact; it documents how the headline results depend on the knobs the
// substitution introduced.
func Sensitivity(cfg Config) (*SensitivityResult, error) {
	cfg.defaults()
	c := cfg.cluster()
	out := &SensitivityResult{
		SlotGain:      map[string]float64{},
		CandidateGain: map[int][2]float64{},
		AlphaGain:     map[string][2]float64{},
		SkewAggGain:   map[string]float64{},
	}

	job := workload.CosineSimilarity(c, cfg.Scale)
	gainOf := func(delays map[dag.StageID]float64, opts sim.Options) (float64, error) {
		opts.Cluster = c
		res, err := sim.Run(opts, []sim.JobRun{{Job: job, Delays: delays}})
		if err != nil {
			return 0, err
		}
		base, err := sim.Run(opts, []sim.JobRun{{Job: job}})
		if err != nil {
			return 0, err
		}
		return 100 * (base.JCT(0) - res.JCT(0)) / base.JCT(0), nil
	}

	// 1. Slot granularity.
	for _, slot := range []float64{0.5, 1, 2, 5, 10} {
		s, err := core.Compute(core.Options{Cluster: c, SlotSeconds: slot}, job)
		if err != nil {
			return nil, err
		}
		g, err := gainOf(s.Delays, sim.Options{TrackNode: -1})
		if err != nil {
			return nil, err
		}
		out.SlotGain[floatKey(slot)] = g
	}

	// 2. Candidate budget.
	for _, mc := range []int{4, 8, 16, 32, 64} {
		t0 := time.Now()
		s, err := core.Compute(core.Options{Cluster: c, MaxCandidates: mc}, job)
		if err != nil {
			return nil, err
		}
		ms := float64(time.Since(t0).Microseconds()) / 1000
		g, err := gainOf(s.Delays, sim.Options{TrackNode: -1})
		if err != nil {
			return nil, err
		}
		out.CandidateGain[mc] = [2]float64{g, ms}
	}

	// 3. Contention overhead α (schedule planned at the default, evaluated
	// under each α — the bench-style ablation).
	sched, err := core.Compute(core.Options{Cluster: c}, job)
	if err != nil {
		return nil, err
	}
	for _, alpha := range []float64{-1, 0.12, 0.22, 0.35} {
		opts := sim.Options{TrackNode: -1, ContentionOverhead: alpha, Cluster: c}
		base, err := sim.Run(opts, []sim.JobRun{{Job: job}})
		if err != nil {
			return nil, err
		}
		g, err := gainOf(sched.Delays, sim.Options{TrackNode: -1, ContentionOverhead: alpha})
		if err != nil {
			return nil, err
		}
		key := alpha
		if key < 0 {
			key = 0
		}
		out.AlphaGain[floatKey(key)] = [2]float64{base.JCT(0), g}
	}

	// 4. AggShuffle benefit vs parent skew on a two-stage chain.
	for _, skew := range []float64{0, 0.2, 0.5, 0.8} {
		g := dag.New()
		g.MustAdd(dag.Stage{ID: 1})
		g.MustAdd(dag.Stage{ID: 2, Parents: []dag.StageID{1}})
		p := workload.FromPhases(c, workload.PhaseSpec{
			ReadSec: 60 * cfg.Scale, ComputeSec: 80 * cfg.Scale, WriteSec: 20 * cfg.Scale, Skew: skew,
		})
		chain := &workload.Job{Name: "chain", Graph: g,
			Profiles: map[dag.StageID]workload.StageProfile{1: p, 2: p}}
		if err := chain.Validate(); err != nil {
			return nil, err
		}
		plain, err := sim.Run(sim.Options{Cluster: c, TrackNode: -1}, []sim.JobRun{{Job: chain}})
		if err != nil {
			return nil, err
		}
		agg, err := sim.Run(sim.Options{Cluster: c, TrackNode: -1, AggShuffle: true}, []sim.JobRun{{Job: chain}})
		if err != nil {
			return nil, err
		}
		out.SkewAggGain[floatKey(skew)] = 100 * (plain.JCT(0) - agg.JCT(0)) / plain.JCT(0)
	}

	fprintf(cfg.W, "== Sensitivity sweeps (reproduction parameters) ==\n")
	fprintf(cfg.W, "slot seconds → DelayStage gain:")
	for _, s := range []float64{0.5, 1, 2, 5, 10} {
		fprintf(cfg.W, "  %.1fs:%.1f%%", s, out.SlotGain[floatKey(s)])
	}
	fprintf(cfg.W, "\ncandidates   → gain (Alg.1 ms):")
	for _, mc := range []int{4, 8, 16, 32, 64} {
		v := out.CandidateGain[mc]
		fprintf(cfg.W, "  %d:%.1f%%(%.0fms)", mc, v[0], v[1])
	}
	fprintf(cfg.W, "\nα            → stock JCT, gain:")
	for _, a := range []float64{0, 0.12, 0.22, 0.35} {
		v := out.AlphaGain[floatKey(a)]
		fprintf(cfg.W, "  %.2f:%.0fs,%.1f%%", a, v[0], v[1])
	}
	fprintf(cfg.W, "\nparent skew  → AggShuffle gain:")
	for _, s := range []float64{0, 0.2, 0.5, 0.8} {
		fprintf(cfg.W, "  %.1f:%.1f%%", s, out.SkewAggGain[floatKey(s)])
	}
	fprintf(cfg.W, "\n\n")
	return out, nil
}
