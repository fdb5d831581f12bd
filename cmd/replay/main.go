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
// Every variant replays through internal/replay on N worker goroutines
// (-shards N, 0 = one), with only N simulations live at once even on the
// full 2.7M-job trace; the summary, -events and -chrometrace are
// byte-identical at any shard count. For full-scale traces combine -shards
// with -approx-plan (plan from the analytic Eq. 1–3 model instead of
// what-if simulation) and -variants to pick the strategies to replay.
//
// -checkpoint-dir makes the replay crash-safe: every folded job appends
// one fixed-size record (its failed flag and the bits of its JCT and
// utilizations) to the progress log <dir>/replay.ckpt and fsyncs it, so a
// checkpoint costs the same at any trace length. -resume re-folds the log
// and continues at any shard count: a SIGKILLed replay resumed with the
// same flags produces a byte-identical -json summary and log. A torn tail
// is dropped; a missing log, or one of a different trace or flags, starts
// fresh with a note.
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
	"os"
	"os/signal"
	"syscall"

	"delaystage/internal/cli"
	"delaystage/internal/core"
	"delaystage/internal/metrics"
	"delaystage/internal/obs"
	"delaystage/internal/replay"
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
		if *o.sliceMachines < 1 {
			return errors.New("-slice-machines must be at least 1")
		}
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

// selectVariants returns the -variants subset of replay.Variants.
func (o *options) selectVariants() ([]replay.Variant, error) {
	return replay.SelectVariants(*o.variantList)
}

// configKey is what the flags contribute to the progress-checkpoint
// fingerprint: every value that shapes a replayed run, so a checkpoint
// written under different flags is rejected. Its bytes must not change,
// or every existing checkpoint stops resuming.
func (o *options) configKey(variants []replay.Variant) []byte {
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
		b = append(b, v.Name...)
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
	rp := replay.New(replay.Config{
		MaxCandidates: [2]int{10, 6}, Approximate: *o.approxPlan,
		Faults: *o.fault, Shards: *o.shards, Ctx: ctx,
	}, tr.Jobs, *o.sliceMachines, *o.seed)

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

	// Progress checkpointing: one record per folded job, appended to a
	// log whose fingerprint covers the trace bytes and every flag that
	// shapes a replayed run, so a log written under different inputs is
	// discarded.
	state := make([]*replay.Progress, len(variants))
	for i := range state {
		state[i] = &replay.Progress{}
	}
	var progressLog *replay.Log
	if o.ckpts.Dir != "" {
		path, resume, err := o.ckpts.Open("replay.ckpt")
		if err != nil {
			fail(err)
		}
		traceHash.Write(o.configKey(variants))
		var note string
		progressLog, note, err = replay.OpenLog(path, traceHash.Sum64(), len(tr.Jobs), state, resume)
		if err != nil {
			fail(err)
		}
		if note != "" {
			say(note)
		}
	}
	summary := map[string]*variantSummary{}
	for vi, v := range variants {
		var jctHist *obs.Histogram
		if reg != nil {
			jctHist = reg.Histogram("replay_jct_seconds", fmt.Sprintf("{variant=%q}", v.Name),
				"per-job completion time by scheduling variant", obs.ExpBuckets(10, 2, 12))
		}
		// Observers tap the default-DelayStage variant — the paper's
		// headline configuration — with one "run" per trace job: each world
		// buffers its event stream in the mux until its job is folded.
		var mux *obs.ShardMux
		var observer func(int) sim.Observer
		if v.Order == core.Descending && !v.Plain {
			mux = obs.NewShardMux(o.sinks.JSONL, o.sinks.Chrome)
			observer = mux.Observer
		}
		p := state[vi]
		err := rp.Run(v, p, observer, func(i int, res *sim.Result, _ *core.Schedule) error {
			if jctHist != nil && res.Failed(0) == nil {
				jctHist.Observe(res.JCT(0))
			}
			if mux != nil {
				mux.Flush(i)
			}
			if runsDone != nil {
				runsDone.Inc()
			}
			return progressLog.Append(res)
		})
		if err != nil {
			if errors.Is(err, context.Canceled) {
				done := 0
				for _, st := range state {
					done += st.Done
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
		if len(p.JCTs) == 0 {
			fail(fmt.Errorf("%s: every job failed under the injected faults", v.Name))
		}
		cdf := metrics.NewCDF(p.JCTs)
		fmt.Printf("%-22s mean %8.0fs  P50 %8.0fs  P90 %8.0fs  P99 %8.0fs  CPU %5.1f%%  net %5.1f%%",
			v.Name, cdf.Mean(), cdf.Quantile(0.5), cdf.Quantile(0.9), cdf.Quantile(0.99),
			p.CPUInt/p.TimeInt*100, p.NetInt/p.TimeInt*100)
		if p.Failed > 0 {
			fmt.Printf("  failed %d", p.Failed)
		}
		fmt.Println()
		summary[v.Name] = &variantSummary{JCT: cdf, CPUUtil: p.CPUInt / p.TimeInt,
			NetUtil: p.NetInt / p.TimeInt, Failed: p.Failed}
	}

	if err := progressLog.Close(); err != nil {
		fail(err)
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
