// Command bench is the repository benchmark. It builds cmd/schedd,
// cmd/replay and cmd/tracegen from the checkout, generates one workload's
// inputs from a seed, runs the program under test as a child process,
// checks every output against an in-process reference, and prints each
// metric by name with its unit. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Usage, from the repository root:
//
//	sh bench/run.sh --workload schedd-light --seed 1 --seconds 10 --trace 0
//	sh bench/run.sh --workload replay-plan --seed 2 --seconds 10 --trace 1 --out results
//	sh bench/run.sh compare OLD.jsonl NEW.jsonl
//
// --trace 0 reports the end-to-end metrics; --trace 1 additionally replays
// the same inputs in process with spans around every layer and reports
// the per-layer metrics instead. --out DIR appends the result to
// DIR/results.jsonl (the input of compare) and, with --trace 1, writes the
// spans to DIR/spans-<workload>-<seed>.jsonl. See bench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// metricSpec names one reported metric. The tables below must agree with
// BENCHMARK.json (a unit test checks it).
type metricSpec struct{ name, unit, better string }

var endToEnd = []metricSpec{
	{"latency_ms", "ms", "lower"},
	{"cpu_ms_per_job", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"sim_jct_mean_s", "s", "lower"},
	{"setup_s", "s", "lower"},
}

// perLayer lists the traced run's metrics; a layer the workload does not
// call reads 0.
var perLayer = []metricSpec{
	{"http.self_pct", "%", "lower"},
	{"jobspec.self_pct", "%", "lower"},
	{"service.self_pct", "%", "lower"},
	{"planner.self_pct", "%", "lower"},
	{"cache.self_pct", "%", "lower"},
	{"cluster.self_pct", "%", "lower"},
	{"sim.self_pct", "%", "lower"},
	{"trace.self_pct", "%", "lower"},
	{"core.self_pct", "%", "lower"},
	{"perfmodel.self_pct", "%", "lower"},
	{"shardsim.self_pct", "%", "lower"},
	{"bench.self_pct", "%", "lower"},
	{"bench.tracing_overhead_pct", "%", "lower"},
	{"http.roundtrip_us", "us", "lower"},
	{"http.handler_us", "us", "lower"},
	{"http.transport_us", "us", "lower"},
	{"jobspec.decode_us", "us", "lower"},
	{"service.submit_p50_us", "us", "lower"},
	{"service.submit_p99_us", "us", "lower"},
	{"service.submit_self_us", "us", "lower"},
	{"service.plan_planner_ms", "ms", "lower"},
	{"service.plan_cache_us", "us", "lower"},
	{"service.cache_hit_ratio", "ratio", "higher"},
	{"service.epochs", "count", "higher"},
	{"service.busy_period_jobs", "count", "lower"},
	{"service.heap_bytes_per_job", "B", "lower"},
	{"planner.sweeps", "count", "lower"},
	{"planner.exact_evals_per_sweep", "count", "lower"},
	{"planner.prune_ratio", "ratio", "higher"},
	{"planner.us_per_exact_eval", "us", "lower"},
	{"planner.useful_ratio", "ratio", "higher"},
	{"dataplane.events_replayed_per_submit", "count", "lower"},
	{"dataplane.replay_us_per_submit", "us", "lower"},
	{"sim.stepper_ns_per_event", "ns", "lower"},
	{"core.compute_ms_per_job", "ms", "lower"},
	{"core.compute_p90_ms", "ms", "lower"},
	{"core.evals_per_job", "count", "lower"},
	{"core.us_per_eval", "us", "lower"},
	{"core.prune_ratio", "ratio", "higher"},
	{"core.fork_ratio", "ratio", "higher"},
	{"core.memo_hit_ratio", "ratio", "higher"},
	{"core.allocs_per_eval", "count", "lower"},
	{"perfmodel.bound_prep_us_per_job", "us", "lower"},
	{"perfmodel.scan_lower_ns", "ns", "lower"},
	{"trace.parse_s", "s", "lower"},
	{"trace.parse_heap_mb", "MB", "lower"},
	{"trace.parse_allocs_per_job", "count", "lower"},
	{"trace.workload_us_per_job", "us", "lower"},
	{"sim.run_ns_per_event", "ns", "lower"},
	{"sim.events_per_job", "count", "lower"},
	{"sim.allocs_per_event", "count", "lower"},
	{"shardsim.overhead_pct", "%", "lower"},
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*runCtx) (*outcome, error){
	"schedd-light":  func(rc *runCtx) (*outcome, error) { return runSchedd(rc, scheddLight) },
	"schedd-busy":   func(rc *runCtx) (*outcome, error) { return runSchedd(rc, scheddBusy) },
	"replay-plan":   func(rc *runCtx) (*outcome, error) { return runReplay(rc, replayPlan) },
	"replay-ingest": func(rc *runCtx) (*outcome, error) { return runReplay(rc, replayIngest) },
}

// runCtx is one benchmark run's configuration and environment.
type runCtx struct {
	seed    int64
	seconds float64 // measured-phase length the workload is sized to
	trace   bool
	quick   bool // smoke test: two short rounds
	bins    programs
	work    string // scratch directory, removed after the run
}

// fullRounds is how many times a run repeats its workload. Every round
// starts the program under test afresh (its set-up is timed each time)
// and does the same work, split into the same units: a window of
// submissions for schedd, one trace's replay for replay (replay-plan's
// rounds replay traces of their own instead; see replayPlan). Each unit's
// times are scaled to the reference speed by the calibration kernel run
// next to it (see calib.go); a unit's time is then its median over the
// rounds.
const fullRounds = 8

// minRounds is the fewest rounds a full run makes, however slow the host.
const minRounds = 4

// rounds is the number of rounds a run makes at most. The smoke test makes
// two; a traced run makes one (its per-layer metrics come from the
// in-process passes after it).
func rounds(rc *runCtx) int {
	switch {
	case rc.quick:
		return 2
	case rc.trace:
		return 1
	}
	return fullRounds
}

// moreRounds reports whether a run whose rounds began at t0 makes another
// after k. The rounds are sized for a host of the reference speed; on a
// slower host a run stops after minRounds once the next round would end
// past 1.3 × --seconds, so that it still ends in about the time it was
// given.
func moreRounds(rc *runCtx, k int, t0 time.Time) bool {
	switch {
	case k >= rounds(rc):
		return false
	case k < minRounds || rc.quick || rc.trace:
		return true
	}
	return time.Since(t0).Seconds()*float64(k+1)/float64(k) <= 1.3*rc.seconds
}

// check is one correctness check of a run.
type check struct {
	name   string
	ok     bool
	detail string
}

// outcome is what one workload run measured.
type outcome struct {
	checks    []check
	attempted int
	failed    int
	metrics   map[string]float64
	notes     []string // extra human-readable result lines
	spans     *tracer  // traced runs only
}

func (o *outcome) check(name string, ok bool, format string, a ...any) {
	o.checks = append(o.checks, check{name: name, ok: ok, detail: fmt.Sprintf(format, a...)})
}

func (o *outcome) note(format string, a ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, a...))
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line the benchmark ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is one result line of --out DIR/results.jsonl.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Seconds  int    `json:"seconds"`
	Trace    bool   `json:"trace"`
	result
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	if len(os.Args) > 1 && os.Args[1] == "spawn" {
		os.Exit(spawnMain(os.Args[2:]))
	}
	if len(os.Args) > 1 && os.Args[1] == "spin" {
		os.Exit(spinMain(os.Args[2:]))
	}
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	name := fs.String("workload", "", "workload: schedd-light, schedd-busy, replay-plan or replay-ingest")
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	seconds := fs.Int("seconds", 10, "length of the measured phase the workload is sized to")
	trace := fs.Int("trace", 0, "1 = report per-layer metrics from a traced in-process replay")
	out := fs.String("out", "", "append the result to DIR/results.jsonl (and spans to DIR/spans-*.jsonl)")
	fs.Parse(os.Args[1:])
	if fs.NArg() > 0 {
		fatalf("unexpected argument %q", fs.Arg(0))
	}
	if _, ok := workloads[*name]; !ok {
		fatalf("unknown --workload %q (want %s)", *name, strings.Join(workloadNames(), ", "))
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 {
		fatalf("--seconds must be ≥ 1 and --trace 0 or 1")
	}
	res, oc, err := run(*name, *seed, float64(*seconds), *trace == 1)
	if err != nil {
		fatalf("%v", err)
	}
	if *out != "" {
		if err := writeOut(*out, record{Workload: *name, Seed: *seed, Seconds: *seconds,
			Trace: *trace == 1, result: res}, oc.spans); err != nil {
			fatalf("%v", err)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Println(string(line))
}

func fatalf(format string, a ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", a...)
	os.Exit(1)
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// run builds the programs, drives one workload and prints its report; it
// returns the result line's content.
func run(name string, seed int64, seconds float64, trace bool) (result, *outcome, error) {
	root, err := findRoot()
	if err != nil {
		return result{}, nil, err
	}
	build := filepath.Join(root, ".bench_build")
	bins, err := buildPrograms(root, filepath.Join(build, "bin"))
	if err != nil {
		return result{}, nil, err
	}
	cpus, err := placeThreads()
	if err != nil {
		return result{}, nil, err
	}
	harnessCPUs = cpus
	stop, err := holdCPUs(cpus)
	if err != nil {
		return result{}, nil, err
	}
	defer stop()
	if err := os.MkdirAll(build, 0o755); err != nil {
		return result{}, nil, err
	}
	work, err := os.MkdirTemp(build, "run-")
	if err != nil {
		return result{}, nil, err
	}
	defer os.RemoveAll(work)
	rc := &runCtx{seed: seed, seconds: seconds, trace: trace, bins: bins, work: work}
	t0 := time.Now()
	steal0, err := stolenTicks()
	if err != nil {
		return result{}, nil, err
	}
	oc, err := workloads[name](rc)
	if err != nil {
		return result{}, nil, fmt.Errorf("%s: %w", name, err)
	}
	steal1, err := stolenTicks()
	if err != nil {
		return result{}, nil, err
	}
	stolen := float64(steal1-steal0) / 100 // USER_HZ
	oc.note("hypervisor steal on the harness's %d CPUs: %.2f s, %.1f%% of their time in the run",
		len(cpus), stolen, 100*stolen/(time.Since(t0).Seconds()*float64(len(cpus))))
	res, err := report(oc, trace)
	if err != nil {
		return result{}, nil, err
	}
	fmt.Printf("run %s seed=%d seconds=%g trace=%v took %.1fs\n", name, seed, seconds, trace,
		time.Since(t0).Seconds())
	return res, oc, nil
}

// report prints the checks, notes and metrics of a run and assembles the
// result line. Every declared metric must have been measured.
func report(oc *outcome, trace bool) (result, error) {
	res := result{Correct: true, Attempted: oc.attempted, Failed: oc.failed, Metrics: map[string]metric{}}
	for _, c := range oc.checks {
		status := "ok"
		if !c.ok {
			status = "FAILED"
			res.Correct = false
		}
		fmt.Printf("check %-28s %-6s %s\n", c.name, status, c.detail)
	}
	for _, n := range oc.notes {
		fmt.Println("note", n)
	}
	specs := endToEnd
	if trace {
		specs = perLayer
	}
	for _, s := range specs {
		v, ok := oc.metrics[s.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return result{}, fmt.Errorf("metric %s not measured (got %v)", s.name, v)
		}
		res.Metrics[s.name] = metric{Value: v, Unit: s.unit}
		fmt.Printf("metric %-32s %14.6g %s\n", s.name, v, s.unit)
	}
	if res.Attempted < 1 {
		return result{}, fmt.Errorf("no operations attempted")
	}
	return res, nil
}

// writeOut appends rec to dir/results.jsonl and writes the run's spans.
func writeOut(dir string, rec record, spans *tracer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(dir, "results.jsonl"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if spans == nil {
		return nil
	}
	return spans.writeJSONL(filepath.Join(dir, fmt.Sprintf("spans-%s-%d.jsonl", rec.Workload, rec.Seed)))
}
