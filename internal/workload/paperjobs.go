package workload

import (
	"math/rand"

	"delaystage/internal/cluster"
	"delaystage/internal/dag"
)

// The five paper workloads. DAG shapes follow the paper's figures:
//
//   ALS (Fig. 1/6, 6 stages): S1 ∥ S2 ∥ S3; S4←{S1,S2}; S5←{S3,S4}; S6←S5.
//     Parallel set K = {1,2,3,4}; S3 runs in parallel with 1, 2 and 4.
//   ConnectedComponents (5): S1 ∥ {S2→S3}; S4←{S1,S3}; S5←S4.
//     Sequential stages 4+5 dominate (~55% of JCT), which is why the paper
//     sees the smallest gain (17.5%) here.
//   CosineSimilarity (5): {S1→S2} ∥ {S3→S4}; S5←{S2,S4}.
//     The long path is {S3,S4}; DelayStage delays S1.
//   LDA (5): paths {S1}, {S2→S3}, {S4}; S5←{S1,S3,S4}. Nearly homogeneous
//     tasks (tiny skew), which starves AggShuffle of benefit.
//   TriangleCount (11): five parallel chains — {S1→S4→S9}, {S2→S5→S9},
//     {S3→S6}, {S7}, {S8}; S10←{S6,S7,S8,S9}; S11←S10.
//
// Phase durations are the *uncontended* per-stage times on the reference
// cluster; contention in the simulator stretches them, reproducing the
// paper's stock-Spark timelines.

// mustJob assembles and validates a Job from stage definitions.
func mustJob(name string, ref *cluster.Cluster, stages []Stage) *Job {
	g := dag.New()
	profs := make(map[dag.StageID]StageProfile, len(stages))
	for _, s := range stages {
		g.MustAdd(dag.Stage{ID: s.ID, Name: s.Name, Parents: s.Parents})
		profs[s.ID] = FromPhases(ref, s.Phases)
	}
	j := &Job{Name: name, Graph: g, Profiles: profs}
	if err := j.Validate(); err != nil {
		panic(err)
	}
	return j
}

// Stage couples a DAG node with its phase spec for workload builders.
type Stage struct {
	ID      dag.StageID
	Name    string
	Parents []dag.StageID
	Phases  PhaseSpec
}

// ALS builds the paper's motivation workload (Fig. 1/5/6): Alternating
// Least Squares from Spark MLlib, 6 stages, 3 GB input. The reference
// cluster is the paper's 3-node setup; scale multiplies all durations.
func ALS(ref *cluster.Cluster, scale float64) *Job {
	s := func(r, c, w float64) PhaseSpec {
		return PhaseSpec{ReadSec: r * scale, ComputeSec: c * scale, WriteSec: w * scale, Skew: 0.3}
	}
	return mustJob("ALS", ref, []Stage{
		{ID: 1, Name: "itemFactors", Phases: s(12, 20, 2)},
		{ID: 2, Name: "userFactors", Phases: s(8, 12, 2)},
		{ID: 3, Name: "ratingsBlocks", Phases: s(14, 26, 2)},
		{ID: 4, Name: "userOut", Parents: []dag.StageID{1, 2}, Phases: s(10, 16, 2)},
		{ID: 5, Name: "itemOut", Parents: []dag.StageID{3, 4}, Phases: s(8, 15, 2)},
		{ID: 6, Name: "predict", Parents: []dag.StageID{5}, Phases: s(5, 10, 1)},
	})
}

// ConnectedComponents builds the 5-stage GraphX workload (10 GB synthetic).
func ConnectedComponents(ref *cluster.Cluster, scale float64) *Job {
	s := func(r, c, w float64) PhaseSpec {
		return PhaseSpec{ReadSec: r * scale, ComputeSec: c * scale, WriteSec: w * scale, Skew: 0.5}
	}
	return mustJob("ConnectedComponents", ref, []Stage{
		{ID: 1, Name: "edgeList", Phases: s(95, 88, 10)},
		{ID: 2, Name: "vertexInit", Phases: s(105, 95, 10)},
		{ID: 3, Name: "msgAggregate", Parents: []dag.StageID{2}, Phases: s(115, 105, 10)},
		{ID: 4, Name: "ccIterate", Parents: []dag.StageID{1, 3}, Phases: s(160, 250, 25)},
		{ID: 5, Name: "collect", Parents: []dag.StageID{4}, Phases: s(70, 150, 12)},
	})
}

// CosineSimilarity builds the 5-stage MLlib workload (30 GB synthetic).
func CosineSimilarity(ref *cluster.Cluster, scale float64) *Job {
	s := func(r, c, w float64) PhaseSpec {
		return PhaseSpec{ReadSec: r * scale, ComputeSec: c * scale, WriteSec: w * scale, Skew: 0.4}
	}
	return mustJob("CosineSimilarity", ref, []Stage{
		{ID: 1, Name: "rowLoad", Phases: s(110, 90, 15)},
		{ID: 2, Name: "normalize", Parents: []dag.StageID{1}, Phases: s(60, 80, 10)},
		{ID: 3, Name: "colLoad", Phases: s(150, 180, 20)},
		{ID: 4, Name: "gramian", Parents: []dag.StageID{3}, Phases: s(100, 160, 20)},
		{ID: 5, Name: "similarities", Parents: []dag.StageID{2, 4}, Phases: s(60, 120, 10)},
	})
}

// LDA builds the 5-stage MLlib workload (140M Wikipedia documents, 10
// iterations). LDA's stages have nearly homogeneous tasks, so Skew is tiny
// — this is what makes AggShuffle's benefit "trivial" on LDA (Sec. 5.2).
func LDA(ref *cluster.Cluster, scale float64) *Job {
	s := func(r, c, w float64) PhaseSpec {
		return PhaseSpec{ReadSec: r * scale, ComputeSec: c * scale, WriteSec: w * scale, Skew: 0.05}
	}
	return mustJob("LDA", ref, []Stage{
		{ID: 1, Name: "tokenize", Phases: s(60, 80, 10)},
		{ID: 2, Name: "countVectorize", Phases: s(50, 60, 10)},
		{ID: 3, Name: "termFreq", Parents: []dag.StageID{2}, Phases: s(40, 60, 8)},
		{ID: 4, Name: "emIterations", Phases: s(70, 110, 10)},
		{ID: 5, Name: "describeTopics", Parents: []dag.StageID{1, 3, 4}, Phases: s(30, 60, 5)},
	})
}

// TriangleCount builds the 11-stage GraphX workload (10M users, 100M
// connections). Graph data is heavily skewed, so Skew is large.
func TriangleCount(ref *cluster.Cluster, scale float64) *Job {
	s := func(r, c, w float64) PhaseSpec {
		return PhaseSpec{ReadSec: r * scale, ComputeSec: c * scale, WriteSec: w * scale, Skew: 0.6}
	}
	return mustJob("TriangleCount", ref, []Stage{
		{ID: 1, Name: "edgePart1", Phases: s(40, 50, 8)},
		{ID: 2, Name: "edgePart2", Phases: s(50, 60, 10)},
		{ID: 3, Name: "edgePart3", Phases: s(45, 55, 8)},
		{ID: 4, Name: "canonical1", Parents: []dag.StageID{1}, Phases: s(35, 50, 8)},
		{ID: 5, Name: "canonical2", Parents: []dag.StageID{2}, Phases: s(40, 55, 8)},
		{ID: 6, Name: "canonical3", Parents: []dag.StageID{3}, Phases: s(35, 45, 6)},
		{ID: 7, Name: "degreeCount", Phases: s(60, 70, 10)},
		{ID: 8, Name: "adjacency", Phases: s(55, 65, 10)},
		{ID: 9, Name: "joinEdges", Parents: []dag.StageID{4, 5}, Phases: s(50, 80, 10)},
		{ID: 10, Name: "intersect", Parents: []dag.StageID{6, 7, 8, 9}, Phases: s(60, 100, 12)},
		{ID: 11, Name: "countReduce", Parents: []dag.StageID{10}, Phases: s(30, 60, 6)},
	})
}

// PaperWorkloads returns the four Sec. 5 benchmark workloads on the given
// reference cluster at the given scale, keyed by the names used in the
// paper's tables.
func PaperWorkloads(ref *cluster.Cluster, scale float64) map[string]*Job {
	return map[string]*Job{
		"ConnectedComponents": ConnectedComponents(ref, scale),
		"CosineSimilarity":    CosineSimilarity(ref, scale),
		"LDA":                 LDA(ref, scale),
		"TriangleCount":       TriangleCount(ref, scale),
	}
}

// RandomJob generates a synthetic production job for the trace-driven
// experiments: a random DAG with the given stage count whose uncontended
// stage runtimes fall inside the paper's observed 10–3,000 s span.
// Dependencies only point to lower-numbered stages, so the result is
// acyclic by construction. Roughly 30% of stages are chained sequentially,
// matching the ~79% parallel-stage share observed in the trace.
func RandomJob(name string, ref *cluster.Cluster, nStages int, rng *rand.Rand) *Job {
	if nStages < 1 {
		nStages = 1
	}
	stages := make([]Stage, 0, nStages)
	for i := 1; i <= nStages; i++ {
		var parents []dag.StageID
		if i > 1 {
			// Geometric parent count, biased toward 0/1 parents: wide DAGs.
			nPar := 0
			for rng.Float64() < 0.45 && nPar < 3 && nPar < i-1 {
				nPar++
			}
			seen := map[dag.StageID]bool{}
			for len(parents) < nPar {
				p := dag.StageID(1 + rng.Intn(i-1))
				if !seen[p] {
					seen[p] = true
					parents = append(parents, p)
				}
			}
		}
		// Solo runtime 10–3,000 s, log-uniform-ish, split across phases.
		// The conversions keep every product out of a fused multiply-add.
		total := float64(10 * pow(1.0+float64(rng.Float64()), 8)) // ~10 … ~2,560 s, log-skewed
		read := float64(total * (0.2 + float64(rng.Float64()*0.3)))
		write := float64(total * (0.02 + float64(rng.Float64()*0.08)))
		compute := total - read - write
		stages = append(stages, Stage{
			ID:      dag.StageID(i),
			Parents: parents,
			Phases:  PhaseSpec{ReadSec: read, ComputeSec: compute, WriteSec: write, Skew: rng.Float64() * 0.6},
		})
	}
	return mustJob(name, ref, stages)
}

func pow(b float64, n int) float64 {
	r := 1.0
	for i := 0; i < n; i++ {
		r *= b
	}
	return r
}
