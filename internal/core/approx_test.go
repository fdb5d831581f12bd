package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"delaystage/internal/cluster"
	"delaystage/internal/golden"
	"delaystage/internal/sim"
	"delaystage/internal/workload"
)

// goldenCase is one (cluster, job, options) configuration of a schedule
// golden.
type goldenCase struct {
	name string
	opt  Options
	job  *workload.Job
}

// approxGoldenCases enumerates the golden configurations: the paper and
// gallery jobs on raw 15- and 30-node m4.large clusters, plus random DAGs
// of 4–133 stages on the coarse trace cluster (the 100+-stage ones take
// the layout's two-pass branch).
func approxGoldenCases() []goldenCase {
	var out []goldenCase
	for _, n := range []int{15, 30} {
		c := cluster.NewM4LargeCluster(n)
		jobs := workload.PaperWorkloads(c, 1)
		jobs["ALS"] = workload.ALS(c, 1)
		for name, j := range workload.Gallery(c, 1) {
			jobs[name] = j
		}
		names := make([]string, 0, len(jobs))
		for name := range jobs {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			out = append(out, goldenCase{fmt.Sprintf("m4x%d/%s", n, name),
				Options{Cluster: c, Approximate: true}, jobs[name]})
		}
	}
	rng := rand.New(rand.NewSource(1))
	tc := sim.Coarsen(cluster.NewTraceCluster(64, 4, rng))
	for i := 0; i < 44; i++ {
		n := 4 + 3*i
		out = append(out, goldenCase{fmt.Sprintf("trace/rand%02d-n%d", i, n),
			Options{Cluster: tc, Approximate: true, MaxCandidates: 12},
			workload.RandomJob(fmt.Sprintf("golden-%d", i), tc, n, rng)})
	}
	return out
}

// scheduleBits renders a schedule's delays, makespan and stock makespan as
// exact float bit patterns, stages in ascending order.
func scheduleBits(s *Schedule) string {
	var b strings.Builder
	fmt.Fprintf(&b, "mk=%016x stock=%016x", math.Float64bits(s.Makespan), math.Float64bits(s.StockMakespan))
	for _, id := range sortedIDs(s.Delays) {
		fmt.Fprintf(&b, " %d:%016x", id, math.Float64bits(s.Delays[id]))
	}
	return b.String()
}

// TestApproximateGolden pins approximate-mode planning bit for bit: each
// golden configuration is planned once, and the delays, makespan and
// stock makespan of every plan must match testdata/ exactly. Run with
// -update to regenerate after an intended model change.
func TestApproximateGolden(t *testing.T) {
	var b strings.Builder
	for _, tc := range approxGoldenCases() {
		fmt.Fprintf(&b, "%s %s\n", tc.name, scheduleBits(computeOK(t, tc.opt, tc.job)))
	}
	golden.Check(t, "testdata/approx_schedules.golden", []byte(b.String()))
}

// TestApproximateNeverWorseSimulated: approximate-mode delays must never
// make the simulated JCT worse than submit-when-ready on the paper and
// gallery jobs — the model they are chosen against has to rank the
// phase interleavings the simulator actually rewards.
func TestApproximateNeverWorseSimulated(t *testing.T) {
	for _, n := range []int{15, 30} {
		c := cluster.NewM4LargeCluster(n)
		for _, scale := range []float64{0.2, 0.3, 1} {
			jobs := workload.PaperWorkloads(c, scale)
			for name, j := range workload.Gallery(c, scale) {
				jobs[name] = j
			}
			names := make([]string, 0, len(jobs))
			for name := range jobs {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				j := jobs[name]
				s := computeOK(t, Options{Cluster: c, Approximate: true}, j)
				stock := simJCT(t, c, j, nil)
				got := simJCT(t, c, j, s.Delays)
				if got > stock*(1+1e-9) {
					t.Errorf("m4x%d scale %v %s: approximate delays regressed the simulated JCT %.2f → %.2f",
						n, scale, name, stock, got)
				}
			}
		}
	}
}
