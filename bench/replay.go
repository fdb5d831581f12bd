package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"delaystage/internal/trace"
)

// A replay round replays replayTraces traces, one cmd/replay process per
// replay (a quick round replays two), after replaying an eight-job trace
// setupProbes times to time set-up.
const (
	replayTraces = 20
	setupProbes  = 4
	smallJobs    = 8 // jobs in the set-up probe trace
)

func traceCount(rc *runCtx) int {
	if rc.quick {
		return 2
	}
	return replayTraces
}

// replayWorkload shapes one cmd/replay run.
type replayWorkload struct {
	// jobsPerSecond sizes the traces: a run replays jobsPerSecond × --seconds
	// jobs over its full rounds.
	jobsPerSecond float64
	variants      []string // replay -variants
	// population is how many times the run's jobs the trace generator
	// draws; the run's jobs are picked from that draw to a fixed stage-count
	// composition (see composition) and dealt to the traces so that every
	// trace holds alike DAGs.
	population int
	// distinct gives every round traces of its own instead of repeating the
	// first round's. A run then makes all its rounds whatever the host's
	// speed, so that every run of a seed replays the same jobs.
	distinct bool
	// eventsCalibrated scales the replays by the calibration kernel's event
	// loop alone (see calibration).
	eventsCalibrated bool
}

var (
	// replayPlan: unique trace DAGs share no work, so single-job Alg. 1
	// (core.Compute) dominates. Alg. 1's time grows as about the 1.9th
	// power of a DAG's stage count, so a few large DAGs take most of it:
	// with one round's 380 jobs repeated, which ones the seed drew moved the
	// run's planning time by 7.9% (IQR/median over ten seeds, timed in
	// process). Distinct rounds replay eight times as many DAGs: 4.8%. Alg. 1 is thousands
	// of small what-if simulations, and its times followed the kernel's
	// event loop more closely than the whole kernel: over eight seeds the
	// calibrated CPU time per job spread 4.1% scaled by the loop and 8.7%
	// scaled by the whole kernel.
	replayPlan = replayWorkload{jobsPerSecond: 96, variants: []string{"fuxi", "default"}, population: 8,
		distinct: true, eventsCalibrated: true}
	// replayIngest: Fuxi only, so nothing is planned; trace parsing, job
	// materialisation and the engine dominate, and peak memory comes from
	// the parsed trace. Its cost hardly depends on which jobs are drawn, so
	// its rounds repeat the same traces (the replay rate is for a 2-vCPU
	// Xeon at full speed; a slower host makes fewer rounds).
	replayIngest = replayWorkload{jobsPerSecond: 8000, variants: []string{"fuxi"}, population: 2}
)

// roundTraces returns the indices into replayInputs.traces that round r
// replays.
func (w replayWorkload) roundTraces(rc *runCtx, r int) []int {
	n, first := traceCount(rc), 0
	if w.distinct {
		first = r * n
	}
	idx := make([]int, n)
	for k := range idx {
		idx[k] = first + k
	}
	return idx
}

// variantName is replay's name for a -variants key.
var variantName = map[string]string{"fuxi": "Fuxi", "default": "default DelayStage"}

// stageBucket groups jobs of alike planning cost: exact stage counts up
// to 15, then buckets 12% wide. Alg. 1's cost grows about as the 1.5th
// power of the stage count, and the DAGs of 41–186 stages, 5% of the
// jobs, take 85% of the planning time.
func stageBucket(stages int) int {
	if stages <= 15 {
		return stages
	}
	return 15 + int(math.Ceil(math.Log(float64(stages)/15)/math.Log(1.12)))
}

// compositionBase is the size of the reference draw composition scales.
const compositionBase = 20000

// composition is the stage-bucket histogram of an n-job replay run: the
// histogram of compositionBase jobs the trace generator draws from seed 0,
// scaled to n by largest remainder. Drawing every seed's jobs to it keeps
// the seed from deciding how many of the expensive DAGs a run replays, and
// keeps their share the trace's at every n.
func composition(n int) map[int]int {
	ref := map[int]int{}
	for _, j := range trace.Generate(trace.GenConfig{Jobs: compositionBase, Seed: 0}).Jobs {
		ref[stageBucket(len(j.Stages))]++
	}
	buckets := make([]int, 0, len(ref))
	for b := range ref {
		buckets = append(buckets, b)
	}
	sort.Ints(buckets)
	h := map[int]int{}
	rem := make([]float64, len(buckets))
	left := n
	for i, b := range buckets {
		exact := float64(ref[b]) * float64(n) / compositionBase
		h[b] = int(exact)
		rem[i] = exact - float64(h[b])
		left -= h[b]
	}
	order := make([]int, len(buckets))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return rem[order[a]] > rem[order[b]] })
	for _, i := range order[:left] {
		h[buckets[i]]++
	}
	return h
}

// stratified picks n jobs of the population with composition(n)'s
// histogram, in population order. A bucket the population cannot fill
// takes the unused jobs of the nearest buckets.
func stratified(pop *trace.Trace, n int) (*trace.Trace, error) {
	quota := composition(n)
	used := make([]bool, len(pop.Jobs))
	for i, j := range pop.Jobs {
		if b := stageBucket(len(j.Stages)); quota[b] > 0 {
			quota[b]--
			used[i] = true
		}
	}
	var short []int // one entry per missing job, by bucket
	for b, q := range quota {
		for ; q > 0; q-- {
			short = append(short, b)
		}
	}
	sort.Ints(short)
	for _, b := range short {
		best, bestD := -1, 0
		for i, j := range pop.Jobs {
			if d := abs(stageBucket(len(j.Stages)) - b); !used[i] && (best < 0 || d < bestD) {
				best, bestD = i, d
			}
		}
		if best < 0 {
			return nil, fmt.Errorf("population of %d jobs too small for %d", len(pop.Jobs), n)
		}
		used[best] = true
	}
	out := &trace.Trace{}
	for i, j := range pop.Jobs {
		if used[i] {
			out.Jobs = append(out.Jobs, j)
		}
	}
	return out, nil
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// deal splits jobs into k traces of alike composition: largest first,
// each job goes to the trace with the fewest stages so far among those
// still short of an equal share of jobs; each trace then keeps the
// original order.
func deal(t *trace.Trace, k int) []*trace.Trace {
	idx := make([]int, len(t.Jobs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return len(t.Jobs[idx[a]].Stages) > len(t.Jobs[idx[b]].Stages) })
	share := (len(t.Jobs) + k - 1) / k
	stages, count := make([]int, k), make([]int, k)
	owner := make([]int, len(t.Jobs))
	for _, i := range idx {
		best := -1
		for w := 0; w < k; w++ {
			if count[w] < share && (best < 0 || stages[w] < stages[best]) {
				best = w
			}
		}
		owner[i] = best
		stages[best] += len(t.Jobs[i].Stages)
		count[best]++
	}
	out := make([]*trace.Trace, k)
	for w := range out {
		out[w] = &trace.Trace{}
	}
	for i, j := range t.Jobs {
		out[owner[i]].Jobs = append(out[owner[i]].Jobs, j)
	}
	return out
}

// replayInputs are a replay run's generated files.
type replayInputs struct {
	traces []string
	jobs   []int  // jobs in each
	small  string // eight short chains: the set-up probe
	smallN int    // jobs in small
}

// tracegen runs cmd/tracegen into path.
func tracegen(rc *runCtx, jobs int, seed int64, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	c, err := startChild(rc.bins.tracegen, []string{"-jobs", strconv.Itoa(jobs), "-seed", strconv.FormatInt(seed, 10)}, f, os.Stderr)
	if err != nil {
		f.Close()
		return err
	}
	ex, err := c.wait()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil && ex.code != 0 {
		err = fmt.Errorf("tracegen exit %d", ex.code)
	}
	return err
}

func readTrace(path string) (*trace.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return trace.Parse(f)
}

func writeTrace(t *trace.Trace, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := t.WriteCSV(w); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// genReplayInputs writes the run's traces and the set-up probe trace: one
// draw of population times the run's jobs from seed, stratified and dealt
// to the rounds, then to each round's traces.
func genReplayInputs(rc *runCtx, w replayWorkload) (*replayInputs, error) {
	n := max(int(math.Round(w.jobsPerSecond*rc.seconds/float64(replayTraces*fullRounds))), 8)
	groups := 1 // sets of traces: one per round of a distinct run
	if w.distinct {
		groups = rounds(rc)
	}
	traces := groups * traceCount(rc)
	in := &replayInputs{small: filepath.Join(rc.work, "small.csv")}
	for k := 0; k < traces; k++ {
		in.traces = append(in.traces, filepath.Join(rc.work, fmt.Sprintf("trace-%d.csv", k)))
	}
	pop := filepath.Join(rc.work, "population.csv")
	if err := tracegen(rc, w.population*n*traces, rc.seed, pop); err != nil {
		return nil, err
	}
	t, err := readTrace(pop)
	if err != nil {
		return nil, err
	}
	sel, err := stratified(t, n*traces)
	if err != nil {
		return nil, err
	}
	// Dealing the rounds' job sets first keeps the rounds alike, which the
	// traces of a set cannot all be: a set has fewer large DAGs than traces.
	for _, set := range deal(sel, groups) {
		for _, part := range deal(set, traceCount(rc)) {
			k := len(in.jobs)
			in.jobs = append(in.jobs, len(part.Jobs))
			if err := writeTrace(part, in.traces[k]); err != nil {
				return nil, err
			}
		}
	}
	probe := filepath.Join(rc.work, "probe.csv")
	if err := tracegen(rc, 200, rc.seed, probe); err != nil {
		return nil, err
	}
	if t, err = readTrace(probe); err != nil {
		return nil, err
	}
	small := &trace.Trace{}
	for _, j := range t.Jobs {
		if len(j.Stages) <= 3 && len(small.Jobs) < smallJobs {
			small.Jobs = append(small.Jobs, j)
		}
	}
	in.smallN = len(small.Jobs)
	return in, writeTrace(small, in.small)
}

// replaySummary is the part of replay -json the checks read.
type replaySummary struct {
	Config struct {
		TraceJobs int `json:"trace_jobs"`
	} `json:"config"`
	Results map[string]struct {
		JCT struct {
			N    int     `json:"n"`
			Mean float64 `json:"mean"`
		} `json:"jct_seconds"`
		Failed int `json:"failed_jobs"`
	} `json:"results"`
}

// runReplayChild runs replay once and parses its summary.
func runReplayChild(rc *runCtx, w replayWorkload, tracePath, tag string) (childExit, *replaySummary, error) {
	jsonPath := filepath.Join(rc.work, tag+".json")
	stdout, err := os.Create(filepath.Join(rc.work, tag+".out"))
	if err != nil {
		return childExit{}, nil, err
	}
	defer stdout.Close()
	args := []string{"-f", tracePath, "-shards", "2", "-variants", strings.Join(w.variants, ","),
		"-seed", strconv.FormatInt(rc.seed, 10), "-json", jsonPath}
	ex, err := runSpawned(rc.bins.replay, args, stdout, os.Stderr, filepath.Join(rc.work, tag+".spawn"))
	if err == nil && ex.code != 0 {
		err = fmt.Errorf("replay exit %d", ex.code)
	}
	if err != nil {
		return ex, nil, err
	}
	b, err := os.ReadFile(jsonPath)
	if err != nil {
		return ex, nil, err
	}
	var sum replaySummary
	if err := json.Unmarshal(b, &sum); err != nil {
		return ex, nil, fmt.Errorf("decode replay summary: %w", err)
	}
	return ex, &sum, nil
}

// runReplay is one replay-plan or replay-ingest run: each round times the
// set-up probes, then replays each of the round's traces once.
func runReplay(rc *runCtx, w replayWorkload) (*outcome, error) {
	in, err := genReplayInputs(rc, w)
	if err != nil {
		return nil, err
	}
	oc := &outcome{metrics: map[string]float64{}}
	traces := len(in.traces)
	// Per trace, one entry per replay of it: wall and CPU time (ms) at the
	// host's own speed, and the replay's calibration factor. Per round: the
	// set-up probes' wall times (s) and their factor.
	walls, cpus, scales := make([][]float64, traces), make([][]float64, traces), make([][]float64, traces)
	var setups, setupScales [][]float64
	var allWalls, rss, roundScale, roundCPU []float64
	means := make([]map[string]float64, traces)
	var probeMeans map[string]float64
	var badJobs, badCounts, repeats, nondeterministic int
	// record checks one replay's summary and returns its per-variant means.
	record := func(sum *replaySummary, n int) map[string]float64 {
		oc.attempted += n
		got := map[string]float64{}
		missing := 0 // jobs without a JCT under some variant
		for _, v := range w.variants {
			res := sum.Results[variantName[v]]
			missing = max(missing, n-res.JCT.N, res.Failed)
			got[v] = res.JCT.Mean
		}
		oc.failed += missing
		badJobs += missing
		if sum.Config.TraceJobs != n {
			badCounts++
		}
		return got
	}
	// same compares a repeated replay's means with the first replay's.
	same := func(first *map[string]float64, got map[string]float64) {
		if *first == nil {
			*first = got
			return
		}
		repeats++
		if !sameMeans(got, *first) {
			nondeterministic++
		}
	}
	t0 := time.Now()
	more := func(r int) bool {
		if w.distinct {
			return r < rounds(rc)
		}
		return moreRounds(rc, r, t0)
	}
	for r := 0; more(r); r++ {
		cal := calibration{eventsOnly: w.eventsCalibrated}
		cal.measure()
		var probes []float64
		for p := 0; p < setupProbes; p++ {
			ex, sum, err := runReplayChild(rc, w, in.small, "setup")
			if err != nil {
				return nil, fmt.Errorf("set-up probe: %w", err)
			}
			probes = append(probes, ex.wall.Seconds())
			same(&probeMeans, record(sum, in.smallN))
		}
		idx := w.roundTraces(rc, r)
		var cpu, jobs float64
		for _, k := range idx {
			cal.measure()
			ex, sum, err := runReplayChild(rc, w, in.traces[k], fmt.Sprintf("replay-%d", k))
			if err != nil {
				return nil, err
			}
			same(&means[k], record(sum, in.jobs[k]))
			walls[k] = append(walls[k], ex.wall.Seconds()*1e3)
			cpus[k] = append(cpus[k], ex.cpu.Seconds()*1e3)
			allWalls = append(allWalls, ex.wall.Seconds()*1e3)
			rss = append(rss, ex.maxRSS)
			cpu, jobs = cpu+ex.cpu.Seconds()*1e3, jobs+float64(in.jobs[k])
		}
		cal.measure()
		f := cal.scales(len(idx) + 1)
		setups, setupScales = append(setups, probes), append(setupScales, repeat(f[0], setupProbes))
		for i, k := range idx {
			scales[k] = append(scales[k], f[1+i])
		}
		roundScale, roundCPU = append(roundScale, sum(f[1:])/float64(len(idx))), append(roundCPU, cpu/jobs)
	}
	replays := len(allWalls)
	oc.check("trace-jobs", badCounts == 0, "%d of %d replays report a trace_jobs other than their trace's", badCounts, replays)
	oc.check("no-failed-jobs", badJobs == 0, "%d job replays without a JCT under %v", badJobs, w.variants)
	oc.check("deterministic", nondeterministic == 0,
		"%d of %d repeated replays (of the set-up probe or a trace) changed their mean JCTs", nondeterministic, repeats)

	var jobs float64
	jctSum := map[string]float64{}
	for k := range in.traces {
		n := float64(in.jobs[k])
		jobs += n
		for v, x := range means[k] {
			jctSum[v] += x * n
		}
	}
	if _, ok := jctSum["default"]; ok {
		oc.check("delaystage-not-worse", jctSum["default"] <= jctSum["fuxi"],
			"default DelayStage mean JCT %.1fs vs Fuxi %.1fs", jctSum["default"]/jobs, jctSum["fuxi"]/jobs)
		oc.note("DelayStage mean JCT gain over Fuxi: %.4f%%", 100*(1-jctSum["default"]/jctSum["fuxi"]))
	}
	// Each trace's time is its median over its replays at the reference
	// speed (f nil: at the host's own). A batch replay answers every job
	// when it exits, so a user waits for the replay's wall time; the traces
	// differ in how many costly DAGs they plan, so the mean over them is
	// steadier than the median.
	perTrace := func(xs, f [][]float64) []float64 {
		out := make([]float64, len(xs))
		for k, x := range xs {
			v := append([]float64(nil), x...)
			for i := range v {
				if f != nil {
					v[i] *= f[k][i]
				}
			}
			out[k] = median(v)
		}
		return out
	}
	latency := func(f [][]float64) float64 { return sum(perTrace(walls, f)) / float64(traces) }
	perJob := func(f [][]float64) float64 { return sum(perTrace(cpus, f)) / jobs }
	setup := func(f [][]float64) float64 { return median(unitMedians(rescale(setups, f))) }
	m := oc.metrics
	m["latency_ms"] = latency(scales)
	m["cpu_ms_per_job"] = perJob(scales)
	m["peak_rss_mb"] = median(rss)
	m["sim_jct_mean_s"] = jctSum[w.variants[len(w.variants)-1]] / jobs
	m["setup_s"] = setup(setupScales)
	shape := "the same traces"
	if w.distinct {
		shape = "traces of its own"
	}
	oc.note("%d rounds of %d traces each, %s; %d traces of %v jobs", len(setups), traceCount(rc), shape, traces, in.jobs)
	oc.note("every replay's wall time: p50 %.6g ms, p90 %.6g ms over %d replays",
		percentile(allWalls, 0.5), percentile(allWalls, 0.9), replays)
	oc.note("at the host's own speed: latency %.4g ms, CPU %.4g ms per job, set-up %.4g s",
		latency(nil), perJob(nil), setup(ones(setups)))
	oc.note("reference speed over the host's, by round: %.3f", roundScale)
	oc.note("CPU per job by round, at the host's own speed: %.4g ms", roundCPU)
	oc.note("a spawn helper's resident size when it forked a replay: at most %.1f MB, the least a replay's peak RSS can read", rssFloor)
	// The in-process recomputation covers the first round's traces: a
	// distinct run's other rounds would take as long again to recompute.
	var refPaths []string
	var refMeans []map[string]float64
	for _, k := range w.roundTraces(rc, 0) {
		refPaths, refMeans = append(refPaths, in.traces[k]), append(refMeans, means[k])
	}
	if err := replayReferenceChecks(rc, w, refPaths, refMeans, oc); err != nil {
		return nil, err
	}
	return oc, nil
}

// sameMeans reports whether two per-variant mean JCT maps are bit-identical.
func sameMeans(a, b map[string]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for v, x := range a {
		y, ok := b[v]
		if !ok || math.Float64bits(x) != math.Float64bits(y) {
			return false
		}
	}
	return true
}
