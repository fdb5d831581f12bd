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
//	replay -f trace.csv -fault-rate 0.05 -node-mttf 4000 -speculate -blacklist-after 2
//	replay -f trace.csv -checkpoint-dir ckpt -resume -json sum.json
//	tracegen -scale full | replay -shards 8 -approx-plan -variants fuxi,default
//
// -events and -chrometrace capture the default-DelayStage replays (one sim
// run per trace job, labelled run=<job index>); -json summarizes every
// variant.
//
// -shards N replays each variant through N merging-clock engine shards
// (internal/shardsim): shard s owns jobs {i : i%N == s} and advances a
// bounded window of live simulations (-shard-window, default 64) in global
// timestamp order, so memory stays flat even on the full 2.7M-job trace.
// Per-shard JCT CDFs are k-way merged and the utilization integrals are
// folded in job order, so the summary is byte-identical at any shard
// count, including -shards 0 (the sequential path). The same holds for
// -events and -chrometrace: an obs.ShardMux buffers each world's event
// stream and drains finished worlds in index order, so the logs are
// byte-identical to the sequential path at any shard count. For
// full-scale traces combine -shards with -approx-plan (plan from the
// analytic Eq. 1–3 model instead of what-if simulation) and -variants to
// pick the strategies to replay.
//
// -checkpoint-dir makes the replay crash-safe: after every job the
// per-variant progress (bit-exact JCTs and utilization sums) is written
// atomically to <dir>/replay.ckpt, and -resume continues from it — a
// SIGKILLed replay resumed with the same flags produces a byte-identical
// -json summary. A missing checkpoint starts fresh; a corrupt or
// mismatched one (different trace or flags) is discarded with a warning.
// The sharded path has no per-job progress prefix, so -shards is
// incompatible with -checkpoint-dir.
//
// Diagnostics go to stderr as JSON lines (log/slog); -log-level picks the
// floor (debug, info, warn, error). Results stay on stdout.
package main

import (
	"context"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"delaystage/internal/ckpt"
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

func main() {
	file := flag.String("f", "", "trace file (default: stdin)")
	sliceMachines := flag.Int("slice-machines", 2, "machines in each job's even cluster slice")
	seed := flag.Int64("seed", 1, "seed for slice bandwidth draws and the random order")
	faultRate := flag.Float64("fault-rate", 0, "per-partition task failure probability")
	stragFrac := flag.Float64("straggler-frac", 0, "fraction of partitions that straggle")
	stragFactor := flag.Float64("straggler-factor", 1, "slowdown multiplier of straggling partitions")
	nodeMTTF := flag.Float64("node-mttf", 0, "mean time to failure per slice machine in simulated seconds (0 = off)")
	mttfHorizon := flag.Float64("mttf-horizon", 0, "only MTTF crash draws before this simulated time take effect (0 = unbounded)")
	slowNodeFrac := flag.Float64("slow-node-frac", 0, "fraction of slice machines that run persistently slow")
	slowNodeFactor := flag.Float64("slow-node-factor", 1, "slowdown multiplier of persistently slow machines")
	faultSeed := flag.Int64("fault-seed", 1, "base seed of the fault injector (each trace job draws from seed+index)")
	maxRetries := flag.Int("max-retries", 0, "attempts per partition before a job fails (0 = default 4)")
	speculate := flag.Bool("speculate", false, "launch speculative clones of straggling partitions")
	blacklistAfter := flag.Int("blacklist-after", 0, "blacklist a slice machine after this many faults on it (0 = off)")
	eventsPath := flag.String("events", "", "write a JSONL event log of the default-DelayStage replays to this file (\"-\" = stdout)")
	tracePath := flag.String("chrometrace", "", "write a Chrome trace of the default-DelayStage replays to this file")
	jsonPath := flag.String("json", "", "write a machine-readable per-variant summary to this file (\"-\" = stdout)")
	serveAddr := flag.String("serve", "", "serve live introspection (/metrics with per-variant JCT histograms, /healthz, /debug/pprof) on this address during the replay")
	linger := flag.Duration("linger", 0, "keep the -serve endpoint up this long after the replay (for scraping short runs)")
	ckptDir := flag.String("checkpoint-dir", "", "write per-job progress checkpoints into this directory (the replay becomes crash-safe)")
	resume := flag.Bool("resume", false, "resume from the progress checkpoint in -checkpoint-dir (missing or stale checkpoints start fresh)")
	shards := flag.Int("shards", 0, "replay through this many merging-clock engine shards (0 = sequential legacy path); the summary is byte-identical at any setting")
	shardWindow := flag.Int("shard-window", 0, "max live simulation worlds per shard (0 = default 64); bounds sharded replay memory at full trace scale")
	variantsFlag := flag.String("variants", "", "comma-separated subset of variants to replay: fuxi,random,default,ascending (default: all)")
	approxPlan := flag.Bool("approx-plan", false, "plan from the analytic model instead of what-if simulation (needed to replay full-scale traces in minutes)")
	logLevel := flag.String("log-level", "info", "stderr log floor: debug, info, warn or error")
	flag.Parse()

	level, err := obs.ParseLogLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	logger := obs.NewLogger(os.Stderr, level)
	fail := func(err error) {
		logger.Error(err.Error())
		os.Exit(1)
	}
	failf := func(format string, a ...any) {
		logger.Error(fmt.Sprintf(format, a...))
		os.Exit(1)
	}

	// SIGINT/SIGTERM cancel the context: the sequential loop stops after
	// the job in flight (its progress checkpoint already flushed), the
	// sharded runner drains its workers, and a -linger endpoint wakes up
	// early — no more dying mid-write on Ctrl-C.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	if *shards > 0 && *ckptDir != "" {
		failf("-shards is incompatible with -checkpoint-dir: the sharded replay has no per-job progress prefix; run it to completion")
	}

	var r io.Reader = os.Stdin
	if *file != "" {
		f, err := os.Open(*file)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		r = f
	}
	// The trace bytes are hashed while they stream through the parser —
	// never buffered whole — and feed the progress-checkpoint fingerprint:
	// a checkpoint must only resume against the same trace.
	traceHash := fnv.New64a()
	tr, err := trace.Parse(io.TeeReader(r, traceHash))
	if err != nil {
		fail(err)
	}
	if len(tr.Jobs) == 0 {
		failf("replay: empty trace")
	}
	rng := rand.New(rand.NewSource(*seed))

	slices := make([]*cluster.Cluster, len(tr.Jobs))
	for i := range tr.Jobs {
		slices[i] = sim.Coarsen(cluster.NewTraceCluster(*sliceMachines, 4, rng))
	}

	faultsOn := *faultRate > 0 || *stragFrac > 0 || *nodeMTTF > 0 || *slowNodeFrac > 0
	injector := func(jobIdx int) *faults.Injector {
		if !faultsOn {
			return nil
		}
		inj, err := faults.NewInjector(faults.FaultPlan{
			Seed:            *faultSeed + int64(jobIdx),
			TaskFailureProb: *faultRate,
			StragglerFrac:   *stragFrac,
			StragglerFactor: *stragFactor,
			NodeMTTF:        *nodeMTTF,
			MTTFHorizon:     *mttfHorizon,
			SlowNodeFrac:    *slowNodeFrac,
			SlowNodeFactor:  *slowNodeFactor,
		})
		if err != nil {
			fail(err)
		}
		return inj
	}

	var jsonl *obs.JSONL
	var evFile *os.File
	if *eventsPath != "" {
		w := os.Stdout
		if *eventsPath != "-" {
			f, err := os.Create(*eventsPath)
			if err != nil {
				fail(err)
			}
			evFile = f
			w = f
		}
		jsonl = obs.NewJSONL(w)
	}
	var tracer *obs.ChromeTracer
	if *tracePath != "" {
		tracer = obs.NewChromeTracer()
	}
	var reg *obs.Registry
	var srv *obs.Server
	var runsDone *obs.Counter
	if *serveAddr != "" {
		reg = obs.NewRegistry()
		runsDone = reg.Counter("replay_runs_completed_total", "", "sim runs completed across all variants")
		s, err := obs.Serve(*serveAddr, reg)
		if err != nil {
			fail(err)
		}
		srv = s
		logger.Info(fmt.Sprintf("serving introspection on http://%s", srv.Addr), "addr", srv.Addr)
	}

	type variant struct {
		name  string
		order core.Order
		plain bool
	}
	variants := []variant{
		{name: "Fuxi", plain: true},
		{name: "random DelayStage", order: core.Random},
		{name: "default DelayStage", order: core.Descending},
		{name: "ascending DelayStage", order: core.Ascending},
	}
	if *variantsFlag != "" {
		keys := map[string]string{"fuxi": "Fuxi", "random": "random DelayStage",
			"default": "default DelayStage", "ascending": "ascending DelayStage"}
		want := map[string]bool{}
		for _, k := range strings.Split(*variantsFlag, ",") {
			name, ok := keys[strings.TrimSpace(strings.ToLower(k))]
			if !ok {
				failf("replay: unknown variant %q (want fuxi, random, default or ascending)", k)
			}
			want[name] = true
		}
		sel := variants[:0]
		for _, v := range variants {
			if want[v.name] {
				sel = append(sel, v)
			}
		}
		variants = sel
	}

	// Progress checkpointing. The fingerprint covers the trace bytes and
	// every flag that shapes a replayed run, so a checkpoint written under
	// different inputs is rejected and discarded.
	var ckptPath string
	state := make([]*progress, len(variants))
	for i := range state {
		state[i] = &progress{}
	}
	if *ckptDir != "" {
		if jsonl != nil || tracer != nil {
			// A resumed replay skips completed jobs, so per-job event logs
			// would silently come out partial.
			failf("-checkpoint-dir is incompatible with -events and -chrometrace")
		}
		if err := os.MkdirAll(*ckptDir, 0o755); err != nil {
			fail(err)
		}
		ckptPath = filepath.Join(*ckptDir, "replay.ckpt")
	} else if *resume {
		failf("-resume requires -checkpoint-dir")
	}
	h := traceHash
	cfgBuf := make([]byte, 0, 128)
	for _, v := range []float64{float64(*sliceMachines), float64(*seed), *faultRate,
		*stragFrac, *stragFactor, *nodeMTTF, *mttfHorizon, *slowNodeFrac, *slowNodeFactor,
		float64(*faultSeed), float64(*maxRetries), float64(*blacklistAfter)} {
		cfgBuf = binary.LittleEndian.AppendUint64(cfgBuf, math.Float64bits(v))
	}
	for _, b := range []bool{*speculate, *approxPlan} {
		if b {
			cfgBuf = append(cfgBuf, 1)
		} else {
			cfgBuf = append(cfgBuf, 0)
		}
	}
	for _, v := range variants {
		cfgBuf = append(cfgBuf, v.name...)
	}
	h.Write(cfgBuf)
	fingerprint := h.Sum64()
	if *resume {
		env, err := ckpt.ReadFile(ckptPath)
		switch {
		case os.IsNotExist(err):
			logger.Info(fmt.Sprintf("no checkpoint at %s; starting fresh", ckptPath), "path", ckptPath)
		case err != nil:
			if !ckpt.IsFormat(err) {
				fail(err)
			}
			logger.Warn(fmt.Sprintf("unusable checkpoint (%v); starting fresh", err))
		default:
			verr := env.Expect(progressKind, progressVersion, fingerprint)
			var loaded []*progress
			if verr == nil {
				loaded, verr = decodeProgress(env.Payload, len(variants))
			}
			if verr != nil {
				logger.Warn(fmt.Sprintf("unusable checkpoint (%v); starting fresh", verr))
			} else {
				state = loaded
				done := 0
				for _, p := range state {
					done += p.done
				}
				logger.Info(fmt.Sprintf("resumed from %s: %d/%d runs already done",
					ckptPath, done, len(variants)*len(tr.Jobs)), "path", ckptPath)
			}
		}
	}
	saveProgress := func() {
		if ckptPath == "" {
			return
		}
		if err := ckpt.WriteFile(ckptPath, ckpt.Envelope{
			Kind: progressKind, Version: progressVersion,
			Fingerprint: fingerprint, Payload: encodeProgress(state),
		}); err != nil {
			fail(err)
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
		// own cluster slice. It is a pure function of i, so the sharded path
		// may call it lazily from worker goroutines.
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
					Cluster: slices[i], Order: v.order, Seed: *seed + int64(i),
					MaxCandidates: mc, Approximate: *approxPlan,
				}, wl)
				if err != nil {
					return shardsim.World{}, err
				}
				delays = sched.Delays
			}
			return shardsim.World{
				Opt: sim.Options{Cluster: slices[i], TrackNode: -1,
					Faults: injector(i), MaxAttempts: *maxRetries,
					Speculation: *speculate, BlacklistAfter: *blacklistAfter},
				Runs: []sim.JobRun{{Job: wl, Delays: delays}},
			}, nil
		}
		var mergedCDF *metrics.CDF
		if *shards > 0 {
			// Sharded replay: shard s owns jobs {i : i%shards == s}, worlds
			// are built lazily as their shard's merging clock reaches them,
			// and only shards×window engines are live at once. Results land
			// in indexed slots and are folded in job order below, so the
			// summary floats match the sequential path bit for bit.
			//
			// Event observation shards the same way: each observed world
			// buffers its stream in the mux and the index-order reduce
			// drains finished worlds into the exporters, reproducing the
			// sequential emission order byte for byte.
			build := buildWorld
			var mux *obs.ShardMux
			if observed {
				if mux = obs.NewShardMux(len(tr.Jobs), jsonl, tracer); mux.Active() {
					build = func(i int) (shardsim.World, error) {
						w, err := buildWorld(i)
						if err == nil {
							w.Opt.Observer = mux.Observer(i)
						}
						return w, err
					}
				}
			}
			type slot struct {
				jct, cpu, net float64
				failed        bool
			}
			slots := make([]slot, len(tr.Jobs))
			err := shardsim.Run(shardsim.Config{Shards: *shards, MaxLive: *shardWindow, Ctx: ctx},
				len(tr.Jobs),
				build,
				func(i int, res *sim.Result) error {
					if ferr := res.Failed(0); ferr != nil {
						slots[i].failed = true
					} else {
						slots[i].jct = res.JCT(0)
						slots[i].cpu, slots[i].net = res.AvgCPUUtil, res.AvgNetUtil
						if jctHist != nil {
							jctHist.Observe(slots[i].jct) // histogram is mutex-guarded
						}
					}
					if mux != nil {
						mux.Flush(i)
					}
					if runsDone != nil {
						runsDone.Inc()
					}
					return nil
				})
			if err != nil {
				if errors.Is(err, context.Canceled) {
					logger.Warn("interrupted; sharded replay has no per-job progress, rerun from scratch")
					os.Exit(130)
				}
				fail(err)
			}
			nsh := *shards
			if nsh > len(slots) {
				nsh = len(slots)
			}
			byShard := make([][]float64, nsh)
			for i, s := range slots {
				if s.failed {
					p.failed++
					continue
				}
				p.jcts = append(p.jcts, s.jct)
				byShard[i%nsh] = append(byShard[i%nsh], s.jct)
				p.cpuInt += s.cpu * s.jct
				p.netInt += s.net * s.jct
				p.timeInt += s.jct
			}
			// Per-shard sorted CDFs, k-way merged: the full-scale reduction.
			// Merge reproduces NewCDF's sample order element for element.
			cdfs := make([]*metrics.CDF, nsh)
			for s := range cdfs {
				cdfs[s] = metrics.NewCDF(byShard[s])
			}
			mergedCDF = cdfs[0].Merge(cdfs[1:]...)
			p.done = len(tr.Jobs)
		} else {
			for i := p.done; i < len(tr.Jobs); i++ {
				if ctx.Err() != nil {
					// The previous job's progress is already checkpointed;
					// stopping here loses nothing a -resume can't recover.
					done := 0
					for _, st := range state {
						done += st.done
					}
					msg := fmt.Sprintf("interrupted after %d/%d runs", done, len(variants)*len(tr.Jobs))
					if ckptPath != "" {
						msg += fmt.Sprintf("; resume with -checkpoint-dir %s -resume", *ckptDir)
					}
					logger.Warn(msg)
					os.Exit(130)
				}
				w, err := buildWorld(i)
				if err != nil {
					fail(err)
				}
				if observed {
					if jsonl != nil {
						jsonl.Run = i
					}
					if tracer != nil {
						tracer.Run = i
					}
					w.Opt.Observer = obs.Multi(jsonl, tracer)
				}
				res, err := sim.Run(w.Opt, w.Runs)
				if err != nil {
					fail(err)
				}
				if ferr := res.Failed(0); ferr != nil {
					// With fault injection on, a job can exhaust its retry
					// budget; it is a data point of the variant, not a replay
					// error, and it contributes no JCT.
					p.failed++
				} else {
					jct := res.JCT(0)
					p.jcts = append(p.jcts, jct)
					if jctHist != nil {
						jctHist.Observe(jct)
					}
					p.cpuInt += res.AvgCPUUtil * jct
					p.netInt += res.AvgNetUtil * jct
					p.timeInt += jct
				}
				if runsDone != nil {
					runsDone.Inc()
				}
				p.done = i + 1
				saveProgress()
			}
		}
		if len(p.jcts) == 0 {
			failf("%s: every job failed under the injected faults", v.name)
		}
		cdf := mergedCDF
		if cdf == nil {
			cdf = metrics.NewCDF(p.jcts)
		}
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

	if jsonl != nil {
		if err := jsonl.Flush(); err != nil {
			fail(err)
		}
		if evFile != nil {
			if err := evFile.Close(); err != nil {
				fail(err)
			}
		}
	}
	if tracer != nil {
		f, err := os.Create(*tracePath)
		if err != nil {
			fail(err)
		}
		if err := tracer.Write(f); err != nil {
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
	}
	if *jsonPath != "" {
		out := obs.NewExperimentsSummary(map[string]any{
			"trace_jobs": len(tr.Jobs), "slice_machines": *sliceMachines, "seed": *seed,
		})
		for name, vs := range summary {
			out.Results[name] = vs
		}
		if err := obs.WriteJSON(*jsonPath, out); err != nil {
			fail(err)
		}
	}
	if srv != nil {
		if *linger > 0 {
			logger.Info(fmt.Sprintf("lingering %v on http://%s", *linger, srv.Addr))
			// A signal cuts the linger short; the endpoint still closes
			// cleanly below.
			timer := time.NewTimer(*linger)
			select {
			case <-ctx.Done():
				timer.Stop()
			case <-timer.C:
			}
		}
		if err := srv.Close(); err != nil {
			fail(err)
		}
	}
}
