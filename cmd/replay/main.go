// Command replay reads a batch_task CSV trace (real or from cmd/tracegen)
// and replays every job under Fuxi and the three DelayStage variants on
// per-job cluster slices — the Sec. 5.3 simulation (Fig. 14 / Table 4) on
// an arbitrary trace file.
//
// Usage:
//
//	tracegen -jobs 300 | replay
//	replay -f trace.csv [-slice-machines 2]
//	replay -f trace.csv -events ev.jsonl -chrometrace tr.json -json sum.json
//	replay -f trace.csv -fault-rate 0.05 -node-mttf 4000 -mttf-horizon 1000 -speculate -blacklist-after 2
//	replay -f trace.csv -checkpoint-dir ckpt -resume -json sum.json
//	tracegen -scale full | replay -shards 8 -approx-plan -variants fuxi,default
//
// -events and -chrometrace capture the default-DelayStage replays (one sim
// run per trace job, labelled run=<job index>); -json summarizes every
// variant.
//
// Every variant replays through internal/shardsim on N worker goroutines
// (-shards N, 0 = one): each worker takes the next job, builds its world
// and runs it to completion, so only N simulations are live at once even on
// the full 2.7M-job trace. Jobs finish out of order, but shardsim hands
// them back in job order, and each is folded into the variant's progress as
// it arrives, so the summary is byte-identical at any shard count. The same
// holds for -events and -chrometrace: an obs.ShardMux buffers each world's
// event stream and writes it out when the world is folded. For full-scale
// traces combine -shards with -approx-plan (plan from the analytic Eq. 1–3
// model instead of what-if simulation) and -variants to pick the strategies
// to replay.
//
// -checkpoint-dir makes the replay crash-safe: after every folded job the
// per-variant progress (bit-exact JCTs and utilization sums) is written
// atomically to <dir>/replay.ckpt, and -resume continues from it at any
// shard count — a SIGKILLed replay resumed with the same flags produces a
// byte-identical -json summary. A missing checkpoint starts fresh; a
// corrupt or mismatched one (different trace or flags) is discarded with a
// note.
//
// Diagnostics go to stderr as JSON lines (log/slog); -log-level picks the
// floor (debug, info, warn, error). Results stay on stdout. A usage error
// is printed as plain text and exits 2 before any work starts.
package main

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"delaystage/internal/ckpt"
	"delaystage/internal/cli"
	"delaystage/internal/cluster"
	"delaystage/internal/core"
	"delaystage/internal/dag"
	"delaystage/internal/faults"
	"delaystage/internal/metrics"
	"delaystage/internal/obs"
	"delaystage/internal/shardsim"
	"delaystage/internal/sim"
	"delaystage/internal/trace"
)

// variantSummary is one row of the -json output: the per-variant JCT
// distribution, time-weighted utilizations, and the count of jobs that
// exhausted their retry budget (only possible with fault injection on).
type variantSummary struct {
	JCT     *metrics.CDF `json:"jct_seconds"`
	CPUUtil float64      `json:"avg_cpu_util"`
	NetUtil float64      `json:"avg_net_util"`
	Failed  int          `json:"failed_jobs,omitempty"`
}

// progress is the resumable per-variant state: everything the final
// summary derives from, with JCTs kept bit-exact.
type progress struct {
	done                    int // jobs fully replayed under this variant
	jcts                    []float64
	cpuInt, netInt, timeInt float64
	failed                  int
}

// outcome is one finished replay job as the progress fold consumes it.
type outcome struct {
	jct, cpu, net float64
	failed        bool
}

// fold appends the next job's outcome. A job that exhausted its retry
// budget under fault injection is a data point of the variant, not a
// replay error; it contributes no JCT.
func (p *progress) fold(o outcome) {
	if o.failed {
		p.failed++
	} else {
		p.jcts = append(p.jcts, o.jct)
		p.cpuInt += o.cpu * o.jct
		p.netInt += o.net * o.jct
		p.timeInt += o.jct
	}
	p.done++
}

// jobFold is a variant's shardsim reduce. shardsim calls it serially in
// job order, so p always equals a sequential replay's state after its
// first p.done jobs — the floating-point sums are bit-identical at any
// shard count, and every checkpoint save writes such a prefix.
type jobFold struct {
	p        *progress
	start    int          // job index of world 0: the jobs a resumed run skips
	save     func() error // when non-nil, checkpoints the progress after each job
	mux      *obs.ShardMux
	jctHist  *obs.Histogram
	runsDone *obs.Counter
}

func (f *jobFold) reduce(k int, res *sim.Result) error {
	o := outcome{failed: res.Failed(0) != nil}
	if !o.failed {
		o.jct, o.cpu, o.net = res.JCT(0), res.AvgCPUUtil, res.AvgNetUtil
		if f.jctHist != nil {
			f.jctHist.Observe(o.jct)
		}
	}
	if f.mux != nil {
		f.mux.Flush(f.start + k)
	}
	if f.runsDone != nil {
		f.runsDone.Inc()
	}
	f.p.fold(o)
	if f.save == nil {
		return nil
	}
	return f.save()
}

const (
	progressKind    = "replay-progress"
	progressVersion = 1
)

// encodeProgress serializes per-variant progress in variant order; floats
// as IEEE-754 bits, so a resumed replay sums the identical values.
func encodeProgress(ps []*progress) []byte {
	var b []byte
	u64 := func(v uint64) { b = binary.LittleEndian.AppendUint64(b, v) }
	f64 := func(v float64) { u64(math.Float64bits(v)) }
	u64(uint64(len(ps)))
	for _, p := range ps {
		u64(uint64(p.done))
		u64(uint64(p.failed))
		f64(p.cpuInt)
		f64(p.netInt)
		f64(p.timeInt)
		u64(uint64(len(p.jcts)))
		for _, j := range p.jcts {
			f64(j)
		}
	}
	return b
}

func decodeProgress(b []byte, nVariants int) ([]*progress, error) {
	bad := func(reason string) ([]*progress, error) {
		return nil, &ckpt.FormatError{Reason: reason}
	}
	off := 0
	u64 := func() uint64 {
		if off+8 > len(b) {
			off = len(b) + 1 // poison: every later read fails too
			return 0
		}
		v := binary.LittleEndian.Uint64(b[off:])
		off += 8
		return v
	}
	f64 := func() float64 { return math.Float64frombits(u64()) }
	if n := u64(); n != uint64(nVariants) {
		return bad("variant count mismatch")
	}
	ps := make([]*progress, nVariants)
	for i := range ps {
		p := &progress{}
		p.done = int(u64())
		p.failed = int(u64())
		p.cpuInt = f64()
		p.netInt = f64()
		p.timeInt = f64()
		nj := u64()
		if off > len(b) || nj > uint64(len(b)) {
			return bad("truncated progress payload")
		}
		p.jcts = make([]float64, 0, nj)
		for j := uint64(0); j < nj; j++ {
			p.jcts = append(p.jcts, f64())
		}
		ps[i] = p
	}
	if off != len(b) {
		return bad("progress payload length mismatch")
	}
	return ps, nil
}

// variant is one strategy every trace job is replayed under; key is its
// -variants name.
type variant struct {
	name, key string
	order     core.Order
	plain     bool
}

var allVariants = []variant{
	{name: "Fuxi", key: "fuxi", plain: true},
	{name: "random DelayStage", key: "random", order: core.Random},
	{name: "default DelayStage", key: "default", order: core.Descending},
	{name: "ascending DelayStage", key: "ascending", order: core.Ascending},
}

// options is replay's command line: the flag set and what it parses into.
type options struct {
	fs       *cli.FlagSet
	logLevel *cli.Log
	fault    *cli.Faults
	sinks    *cli.Sinks
	intro    *cli.Introspection
	ckpts    *cli.Checkpoint

	file, jsonPath, variantList *string
	sliceMachines, shards       *int
	seed                        *int64
	approxPlan                  *bool
}

// flags builds replay's flag set.
func flags() *options {
	fs := cli.NewFlagSet("replay")
	o := &options{fs: fs, logLevel: cli.LogFlags(fs), fault: cli.FaultFlags(fs),
		sinks: cli.SinkFlags(fs, "the default-DelayStage replays"), intro: cli.IntrospectionFlags(fs, "the replay"),
		ckpts: cli.CheckpointFlags(fs),

		file:          fs.String("f", "", "trace file (default: stdin)"),
		sliceMachines: fs.Int("slice-machines", 2, "machines in each job's even cluster slice"),
		seed:          fs.Int64("seed", 1, "seed for slice bandwidth draws and the random order"),
		jsonPath:      fs.String("json", "", "write a machine-readable per-variant summary to this file (\"-\" = stdout)"),
		shards:        fs.Int("shards", 0, "replay on this many worker goroutines, one live simulation each (0 = one); the summary is byte-identical at any setting"),
		variantList:   fs.String("variants", "", "comma-separated subset of variants to replay: fuxi,random,default,ascending (default: all)"),
		approxPlan:    fs.Bool("approx-plan", false, "plan from the analytic model instead of what-if simulation (needed to replay full-scale traces in minutes)"),
	}
	fs.Check(func() error {
		if o.ckpts.Dir != "" && o.sinks.Set() {
			// A resumed replay skips completed jobs, so per-job event logs
			// would silently come out partial.
			return errors.New("-checkpoint-dir is incompatible with -events and -chrometrace")
		}
		_, err := o.selectVariants()
		return err
	})
	return o
}

// selectVariants returns the -variants subset of allVariants, in
// allVariants order.
func (o *options) selectVariants() ([]variant, error) {
	if *o.variantList == "" {
		return allVariants, nil
	}
	want := map[string]bool{}
	for _, k := range strings.Split(*o.variantList, ",") {
		k = strings.TrimSpace(strings.ToLower(k))
		if k != "fuxi" && k != "random" && k != "default" && k != "ascending" {
			return nil, fmt.Errorf("unknown variant %q (want fuxi, random, default or ascending)", k)
		}
		want[k] = true
	}
	var sel []variant
	for _, v := range allVariants {
		if want[v.key] {
			sel = append(sel, v)
		}
	}
	return sel, nil
}

// configKey is what the flags contribute to the progress-checkpoint
// fingerprint: every value that shapes a replayed run, so a checkpoint
// written under different flags is rejected. Its bytes must not change,
// or every existing checkpoint stops resuming.
func (o *options) configKey(variants []variant) []byte {
	b := make([]byte, 0, 128)
	for _, v := range []float64{float64(*o.sliceMachines), float64(*o.seed)} {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	b = o.fault.AppendKey(b)
	approx := byte(0)
	if *o.approxPlan {
		approx = 1
	}
	b = append(b, approx)
	for _, v := range variants {
		b = append(b, v.name...)
	}
	return b
}

func main() {
	o := flags()
	o.fs.Parse(os.Args[1:])
	logger := o.logLevel.Logger()
	say := func(msg string) { logger.Info(msg) }
	fail := func(err error) {
		logger.Error(err.Error())
		os.Exit(cli.ExitRuntime)
	}
	variants, err := o.selectVariants()
	if err != nil {
		fail(err)
	}

	// SIGINT/SIGTERM cancel the context: the shard runner stops its
	// workers (the folded prefix is already checkpointed), and a -linger
	// endpoint wakes up early — no more dying mid-write on Ctrl-C.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	r, err := cli.OpenInput(*o.file)
	if err != nil {
		fail(err)
	}
	defer r.Close()
	// With -checkpoint-dir the trace bytes are hashed while they stream
	// through the parser — never buffered whole — and feed the
	// progress-checkpoint fingerprint: a checkpoint must only resume
	// against the same trace. Without it nothing reads the hash.
	traceHash := fnv.New64a()
	in := io.Reader(r)
	if o.ckpts.Dir != "" {
		in = io.TeeReader(r, traceHash)
	}
	tr, err := trace.Parse(in)
	if err != nil {
		fail(err)
	}
	if len(tr.Jobs) == 0 {
		fail(errors.New("replay: empty trace"))
	}
	rng := rand.New(rand.NewSource(*o.seed))

	slices := make([]*cluster.Cluster, len(tr.Jobs))
	for i := range tr.Jobs {
		slices[i] = sim.Coarsen(cluster.NewTraceCluster(*o.sliceMachines, 4, rng))
	}

	// The fault flags were validated once, at parse; each job's injector
	// only re-seeds the plan.
	injector := func(jobIdx int) (*faults.Injector, error) {
		if o.fault.Plan.Zero() {
			return nil, nil
		}
		p := o.fault.Plan
		p.Seed += int64(jobIdx)
		return faults.NewInjector(p)
	}

	if err := o.sinks.Open(); err != nil {
		fail(err)
	}
	reg, err := o.intro.Start(say)
	if err != nil {
		fail(err)
	}
	var runsDone *obs.Counter
	if reg != nil {
		runsDone = reg.Counter("replay_runs_completed_total", "", "sim runs completed across all variants")
	}

	// Progress checkpointing. The fingerprint covers the trace bytes and
	// every flag that shapes a replayed run, so a checkpoint written under
	// different inputs is rejected and discarded.
	state := make([]*progress, len(variants))
	for i := range state {
		state[i] = &progress{}
	}
	var saveProgress func() error
	if o.ckpts.Dir != "" {
		traceHash.Write(o.configKey(variants))
		fingerprint := traceHash.Sum64()
		read := func(path string) error {
			env, err := ckpt.ReadFile(path)
			if err != nil {
				return err
			}
			if err := env.Expect(progressKind, progressVersion, fingerprint); err != nil {
				return err
			}
			loaded, err := decodeProgress(env.Payload, len(variants))
			if err == nil {
				state = loaded
			}
			return err
		}
		path, err := o.ckpts.Open("replay.ckpt", read, say)
		if err != nil {
			fail(err)
		}
		saveProgress = func() error {
			return ckpt.WriteFile(path, ckpt.Envelope{
				Kind: progressKind, Version: progressVersion,
				Fingerprint: fingerprint, Payload: encodeProgress(state),
			})
		}
	}
	summary := map[string]*variantSummary{}
	for vi, v := range variants {
		// Observers tap the default-DelayStage variant — the paper's
		// headline configuration — with one "run" per trace job.
		observed := v.order == core.Descending && !v.plain
		var jctHist *obs.Histogram
		if reg != nil {
			jctHist = reg.Histogram("replay_jct_seconds", fmt.Sprintf("{variant=%q}", v.name),
				"per-job completion time by scheduling variant", obs.ExpBuckets(10, 2, 12))
		}
		p := state[vi]
		// buildWorld materializes job i's replay world: the planned delays
		// (when the variant plans) plus the simulation options on the job's
		// own cluster slice. It is a pure function of i, so the shard runner
		// may call it from any worker goroutine.
		buildWorld := func(i int) (shardsim.World, error) {
			wl, err := tr.Jobs[i].Workload(slices[i], trace.DefaultSplit, nil)
			if err != nil {
				return shardsim.World{}, fmt.Errorf("job %s: %w", tr.Jobs[i].Name, err)
			}
			var delays map[dag.StageID]float64
			if !v.plain {
				mc := 10
				if wl.Graph.Len() > 60 {
					mc = 6
				}
				sched, err := core.Compute(core.Options{
					Cluster: slices[i], Order: v.order, Seed: *o.seed + int64(i),
					MaxCandidates: mc, Approximate: *o.approxPlan,
				}, wl)
				if err != nil {
					return shardsim.World{}, err
				}
				delays = sched.Delays
			}
			inj, err := injector(i)
			if err != nil {
				return shardsim.World{}, err
			}
			return shardsim.World{
				Opt: sim.Options{Cluster: slices[i], TrackNode: -1,
					Faults: inj, MaxAttempts: o.fault.MaxAttempts,
					Speculation: o.fault.Speculation, BlacklistAfter: o.fault.BlacklistAfter},
				Runs: []sim.JobRun{{Job: wl, Delays: delays}},
			}, nil
		}
		// The shard runner replays the remaining jobs start+k; each observed
		// world buffers its event stream in the mux until the fold writes it
		// out.
		fold := &jobFold{p: p, start: p.done, save: saveProgress, jctHist: jctHist, runsDone: runsDone}
		if observed {
			if fold.mux = obs.NewShardMux(o.sinks.JSONL, o.sinks.Chrome); !fold.mux.Active() {
				fold.mux = nil
			}
		}
		build := func(k int) (shardsim.World, error) {
			w, err := buildWorld(fold.start + k)
			if err == nil && fold.mux != nil {
				w.Opt.Observer = fold.mux.Observer(fold.start + k)
			}
			return w, err
		}
		err := shardsim.Run(shardsim.Config{Shards: *o.shards, Ctx: ctx}, len(tr.Jobs)-fold.start, build, fold.reduce)
		if err != nil {
			if errors.Is(err, context.Canceled) {
				done := 0
				for _, st := range state {
					done += st.done
				}
				msg := fmt.Sprintf("interrupted after %d/%d runs", done, len(variants)*len(tr.Jobs))
				if o.ckpts.Dir != "" {
					msg += fmt.Sprintf("; resume with -checkpoint-dir %s -resume", o.ckpts.Dir)
				}
				logger.Warn(msg)
				os.Exit(cli.ExitInterrupted)
			}
			fail(err)
		}
		if len(p.jcts) == 0 {
			fail(fmt.Errorf("%s: every job failed under the injected faults", v.name))
		}
		cdf := metrics.NewCDF(p.jcts)
		fmt.Printf("%-22s mean %8.0fs  P50 %8.0fs  P90 %8.0fs  P99 %8.0fs  CPU %5.1f%%  net %5.1f%%",
			v.name, cdf.Mean(), cdf.Quantile(0.5), cdf.Quantile(0.9), cdf.Quantile(0.99),
			p.cpuInt/p.timeInt*100, p.netInt/p.timeInt*100)
		if p.failed > 0 {
			fmt.Printf("  failed %d", p.failed)
		}
		fmt.Println()
		summary[v.name] = &variantSummary{JCT: cdf, CPUUtil: p.cpuInt / p.timeInt,
			NetUtil: p.netInt / p.timeInt, Failed: p.failed}
	}

	if err := o.sinks.Close(nil); err != nil {
		fail(err)
	}
	if *o.jsonPath != "" {
		out := obs.NewExperimentsSummary(map[string]any{
			"trace_jobs": len(tr.Jobs), "slice_machines": *o.sliceMachines, "seed": *o.seed,
		})
		for name, vs := range summary {
			out.Results[name] = vs
		}
		if err := obs.WriteJSON(*o.jsonPath, out); err != nil {
			fail(err)
		}
	}
	if err := o.intro.Close(ctx); err != nil {
		fail(err)
	}
}
