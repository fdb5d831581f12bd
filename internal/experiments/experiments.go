// Package experiments regenerates every table and figure of the paper's
// evaluation (Sec. 5 and Appendix A) on the simulated substrate. Each
// Fig*/Table* function runs one experiment, renders the paper-style rows
// or series to cfg.W, and returns a typed result for tests and benches.
//
// The per-experiment index lives in DESIGN.md; paper-vs-measured numbers
// are recorded in EXPERIMENTS.md.
package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"

	"delaystage/internal/cluster"
	"delaystage/internal/dag"
	"delaystage/internal/metrics"
	"delaystage/internal/scheduler"
	"delaystage/internal/sim"
	"delaystage/internal/workload"
)

// Config holds the shared experiment parameters.
type Config struct {
	// Nodes is the prototype cluster size (default 30, the paper's EC2
	// fleet).
	Nodes int
	// Scale multiplies all workload phase durations (default 1.0; tests
	// use smaller scales to stay fast).
	Scale float64
	// Seed drives every stochastic element (trace generation, profiling
	// noise, random order).
	Seed int64
	// TraceJobs is the job count for trace-driven experiments (default
	// 600 — the real trace's 2.7M jobs scaled to laptop time).
	TraceJobs int
	// Reps is the repetition count for error bars (default 5, as in the
	// paper).
	Reps int
	// Parallelism is the worker count used to evaluate independent grid
	// cells (workload × strategy × rep, fault-sweep points, trace groups).
	// 0/1 runs everything sequentially. Results are bit-identical at any
	// setting: every stochastic draw happens sequentially up front and the
	// parallel cells are pure functions reduced in index order.
	Parallelism int
	// W receives the rendered output (default io.Discard).
	W io.Writer
	// OnGrid, when non-nil, is called once before each batch of
	// independent grid cells runs, with the batch's cell count — live
	// introspection (cmd/experiments -serve) uses it to publish how much
	// work remains. OnCell is called once per completed cell, possibly
	// from worker goroutines, so implementations must be safe for
	// concurrent use. Neither hook may block: cells wait on nothing.
	OnGrid func(cells int)
	OnCell func()
}

func (c *Config) defaults() {
	if c.Nodes <= 0 {
		c.Nodes = 30
	}
	if c.Scale <= 0 {
		c.Scale = 1
	}
	if c.TraceJobs <= 0 {
		c.TraceJobs = 600
	}
	if c.Reps <= 0 {
		c.Reps = 5
	}
	if c.Parallelism <= 0 {
		c.Parallelism = 1
	}
	if c.W == nil {
		c.W = io.Discard
	}
}

// cluster30 builds the prototype cluster.
func (c *Config) cluster() *cluster.Cluster {
	return cluster.NewM4LargeCluster(c.Nodes)
}

// workloadNames is the fixed table order used throughout Sec. 5.
var workloadNames = []string{"ConnectedComponents", "CosineSimilarity", "LDA", "TriangleCount"}

// runUnder plans and simulates one workload under a strategy, tracking
// node 0.
func runUnder(c *cluster.Cluster, job *workload.Job, strat scheduler.Strategy, extra sim.Options) (*sim.Result, scheduler.Plan, error) {
	plan, err := strat.Plan(c, job)
	if err != nil {
		return nil, plan, err
	}
	extra.Cluster = c
	extra.AggShuffle = plan.AggShuffle
	res, err := sim.Run(extra, []sim.JobRun{{Job: job, Delays: plan.Delays}})
	return res, plan, err
}

// mbps converts bytes/s to MB/s for table rendering.
func mbps(v float64) float64 { return v / cluster.MB }

// jitterCluster perturbs every node's network bandwidth by up to ±frac,
// modeling EC2 run-to-run variance.
func jitterCluster(base *cluster.Cluster, rng *rand.Rand, frac float64) *cluster.Cluster {
	out := &cluster.Cluster{Nodes: append([]cluster.Node(nil), base.Nodes...)}
	for i := range out.Nodes {
		out.Nodes[i].NetBW *= 1 + (rng.Float64()*2-1)*frac
	}
	return out
}

// forEach runs fn(i) for i in [0, n) on up to `parallelism` goroutines.
// fn must be a pure function of i writing only slots it owns (indexed
// result slices); callers reduce those slots in index order afterwards, so
// output is independent of scheduling. With parallelism ≤ 1 it is a plain
// sequential loop that stops at the first error; in parallel mode every
// claimed cell still runs and the lowest-index error is returned, keeping
// the reported failure deterministic.
// forEach runs fn over n independent cells on the Config's worker count,
// reporting batch size and per-cell completion through the OnGrid/OnCell
// hooks. Experiments call this method (not the free function) so every
// grid is visible to live introspection.
func (c *Config) forEach(n int, fn func(i int) error) error {
	if c.OnGrid != nil {
		c.OnGrid(n)
	}
	if c.OnCell != nil {
		inner := fn
		fn = func(i int) error {
			err := inner(i)
			c.OnCell()
			return err
		}
	}
	return forEach(c.Parallelism, n, fn)
}

func forEach(parallelism, n int, fn func(i int) error) error {
	if parallelism <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	if parallelism > n {
		parallelism = n
	}
	var next atomic.Int64
	errs := make([]error, n)
	var wg sync.WaitGroup
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// fprintf writes to the experiment's writer, ignoring errors (the writer
// is a terminal or a buffer).
func fprintf(w io.Writer, format string, args ...interface{}) {
	fmt.Fprintf(w, format, args...)
}

// delayedStages lists the stages with non-zero delay, sorted, for the
// "delaying stage" annotations of the breakdown figures.
func delayedStages(delays map[dag.StageID]float64) []dag.StageID {
	var ids []dag.StageID
	for id, d := range delays {
		if d > 0 {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// ganttFromTimelines renders a job's stage timelines in the style of
// Figs. 6/11/16: shaded shuffle read, solid compute+write.
func ganttFromTimelines(res *sim.Result, job *workload.Job) string {
	var bars []metrics.GanttBar
	for _, id := range job.Graph.Stages() {
		tl := res.Timeline(0, id)
		if tl == nil {
			continue
		}
		bars = append(bars, metrics.GanttBar{
			Label: fmt.Sprintf("Stage %d", id),
			Start: tl.Start,
			Split: tl.ReadEnd,
			End:   tl.End,
		})
	}
	return metrics.RenderGantt(bars, 72)
}

// seriesToStepPoints converts sim series to metrics step points.
func seriesToStepPoints(s sim.Series) []metrics.StepPoint {
	out := make([]metrics.StepPoint, len(s))
	for i, p := range s {
		out[i] = metrics.StepPoint{T: p.T, V: p.V}
	}
	return out
}
