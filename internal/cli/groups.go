package cli

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"delaystage/internal/cluster"
	"delaystage/internal/faults"
	"delaystage/internal/jobspec"
	"delaystage/internal/obs"
	"delaystage/internal/sim"
	"delaystage/internal/workload"
)

// Faults is the fault-injection and mitigation flag group. After Parse,
// Plan is a validated fault plan (its Seed is -fault-seed) and the other
// fields are the sim.Options fields of the same name.
type Faults struct {
	Plan           faults.FaultPlan
	MaxAttempts    int
	Speculation    bool
	BlacklistAfter int
}

// FaultFlags registers the fault and mitigation flags on fs.
func FaultFlags(fs *FlagSet) *Faults {
	g := &Faults{}
	p := &g.Plan
	fs.Float64Var(&p.TaskFailureProb, "fault-rate", 0, "per-partition task failure probability")
	fs.Float64Var(&p.StragglerFrac, "straggler-frac", 0, "fraction of partitions that straggle")
	fs.Float64Var(&p.StragglerFactor, "straggler-factor", 1, "slowdown multiplier of straggling partitions")
	fs.Float64Var(&p.NodeMTTF, "node-mttf", 0, "mean time to failure per machine in simulated seconds; every machine draws a hash-based crash time (0 = off)")
	fs.Float64Var(&p.MTTFHorizon, "mttf-horizon", 0, "only MTTF crash draws before this simulated time take effect (required with -node-mttf)")
	fs.Float64Var(&p.SlowNodeFrac, "slow-node-frac", 0, "fraction of machines that run persistently slow")
	fs.Float64Var(&p.SlowNodeFactor, "slow-node-factor", 1, "slowdown multiplier of persistently slow machines")
	fs.Int64Var(&p.Seed, "fault-seed", 1, "seed of the fault injector's deterministic draws")
	fs.IntVar(&g.MaxAttempts, "max-retries", 0, "attempts per partition before a job fails (0 = default 4)")
	fs.BoolVar(&g.Speculation, "speculate", false, "launch speculative clones of straggling partitions on other machines")
	fs.IntVar(&g.BlacklistAfter, "blacklist-after", 0, "take a machine out of placement after this many faults on it (0 = off)")
	fs.Check(func() error { return g.Plan.Validate() })
	return g
}

// AppendKey appends the group's values to b for a fingerprint that must
// change whenever a fault flag does: the ten numbers as little-endian
// IEEE-754 bits, then one byte for -speculate. The layout is part of
// every fingerprint built on it, so it must not change.
func (g *Faults) AppendKey(b []byte) []byte {
	p := g.Plan
	for _, v := range []float64{p.TaskFailureProb, p.StragglerFrac, p.StragglerFactor, p.NodeMTTF,
		p.MTTFHorizon, p.SlowNodeFrac, p.SlowNodeFactor, float64(p.Seed),
		float64(g.MaxAttempts), float64(g.BlacklistAfter)} {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	if g.Speculation {
		return append(b, 1)
	}
	return append(b, 0)
}

// Sinks is the trace-sink flag group: -events writes a JSONL event log,
// -chrometrace a Chrome trace-event file.
type Sinks struct {
	events, chrome string
	// JSONL and Chrome are the exporters Open attaches; each stays nil
	// while its flag is unset.
	JSONL              *obs.JSONL
	Chrome             *obs.ChromeTracer
	evFile, chromeFile *os.File
}

// SinkFlags registers -events and -chrometrace on fs; what names the
// runs they capture.
func SinkFlags(fs *FlagSet, what string) *Sinks {
	g := &Sinks{}
	fs.StringVar(&g.events, "events", "", "write a JSONL event log of "+what+" to this file (\"-\" = stdout)")
	fs.StringVar(&g.chrome, "chrometrace", "", "write a Chrome trace-event file (chrome://tracing, Perfetto) of "+what+" to this file")
	return g
}

// Set reports whether either sink was asked for.
func (g *Sinks) Set() bool { return g.events != "" || g.chrome != "" }

// Open creates the sink files and their exporters.
func (g *Sinks) Open() error {
	if g.events != "" {
		w := os.Stdout
		if g.events != "-" {
			f, err := os.Create(g.events)
			if err != nil {
				return err
			}
			g.evFile, w = f, f
		}
		g.JSONL = obs.NewJSONL(w)
	}
	if g.chrome != "" {
		f, err := os.Create(g.chrome)
		if err != nil {
			return err
		}
		g.chromeFile, g.Chrome = f, obs.NewChromeTracer()
	}
	return nil
}

// Close flushes and closes the event log, then writes and closes the
// Chrome trace, adding res's utilization counters to it when res is
// non-nil.
func (g *Sinks) Close(res *sim.Result) error {
	if g.JSONL != nil {
		if err := g.JSONL.Flush(); err != nil {
			return err
		}
		if g.evFile != nil {
			if err := g.evFile.Close(); err != nil {
				return err
			}
		}
	}
	if g.Chrome == nil {
		return nil
	}
	if res != nil {
		g.Chrome.AddCounters(res)
	}
	if err := g.Chrome.Write(g.chromeFile); err != nil {
		return err
	}
	return g.chromeFile.Close()
}

// Introspection is the live-introspection flag group: -serve exposes
// /metrics, /healthz and /debug/pprof while the command runs, and -linger
// keeps the endpoint up after it finishes.
type Introspection struct {
	addr   string
	linger time.Duration
	srv    *obs.Server
	say    func(string)
}

// IntrospectionFlags registers -serve and -linger on fs; what names the
// work the endpoint watches.
func IntrospectionFlags(fs *FlagSet, what string) *Introspection {
	g := &Introspection{}
	fs.StringVar(&g.addr, "serve", "", "serve live introspection (/metrics, /healthz, /debug/pprof) on this address while "+what+" runs")
	fs.DurationVar(&g.linger, "linger", 0, "keep the -serve endpoint up this long after "+what+" finishes (for scraping short runs)")
	fs.Check(func() error {
		if g.linger != 0 && g.addr == "" {
			return errors.New("-linger requires -serve")
		}
		return nil
	})
	return g
}

// Set reports whether -serve was given.
func (g *Introspection) Set() bool { return g.addr != "" }

// Start binds the -serve endpoint, announces it through say and returns
// the registry it exports; without -serve it returns nil.
func (g *Introspection) Start(say func(string)) (*obs.Registry, error) {
	if g.addr == "" {
		return nil, nil
	}
	reg := obs.NewRegistry()
	srv, err := obs.Serve(g.addr, reg)
	if err != nil {
		return nil, err
	}
	g.srv, g.say = srv, say
	say(fmt.Sprintf("serving introspection on http://%s", srv.Addr))
	return reg, nil
}

// Close keeps the endpoint up for -linger, cut short when ctx ends or a
// SIGINT or SIGTERM arrives, and then closes it.
func (g *Introspection) Close(ctx context.Context) error {
	if g.srv == nil {
		return nil
	}
	if g.linger > 0 {
		g.say(fmt.Sprintf("lingering %v on http://%s", g.linger, g.srv.Addr))
		ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
		defer stop()
		ctx, cancel := context.WithTimeout(ctx, g.linger)
		defer cancel()
		<-ctx.Done()
	}
	return g.srv.Close()
}

// Checkpoint is the crash-safety flag group of a trace replay:
// -checkpoint-dir makes the replay write progress checkpoints, and
// -resume continues from one.
type Checkpoint struct {
	Dir    string
	resume bool
}

// CheckpointFlags registers -checkpoint-dir and -resume on fs.
func CheckpointFlags(fs *FlagSet) *Checkpoint {
	g := &Checkpoint{}
	fs.StringVar(&g.Dir, "checkpoint-dir", "", "write crash-safe checkpoints into this directory")
	fs.BoolVar(&g.resume, "resume", false, "resume from the checkpoint in -checkpoint-dir if one exists (missing or stale checkpoints start fresh)")
	fs.Check(func() error {
		if g.resume && g.Dir == "" {
			return errors.New("-resume requires -checkpoint-dir")
		}
		return nil
	})
	return g
}

// Open creates -checkpoint-dir and returns the path of the named
// checkpoint file in it, and whether -resume asks to continue from that
// file. What a resume keeps of the file is up to its format's owner.
func (g *Checkpoint) Open(name string) (path string, resume bool, err error) {
	if err := os.MkdirAll(g.Dir, 0o755); err != nil {
		return "", false, err
	}
	return filepath.Join(g.Dir, name), g.resume, nil
}

// Jobs is the job-selection flag group: a paper workload at a scale, or a
// JSON job spec, on an m4.large cluster.
type Jobs struct {
	Nodes    int
	Spec     string
	workload string
	scale    float64
}

// JobFlags registers -workload, -nodes, -scale and -spec on fs, with the
// command's own default workload.
func JobFlags(fs *FlagSet, defaultWorkload string) *Jobs {
	g := &Jobs{}
	fs.StringVar(&g.workload, "workload", defaultWorkload, "ALS | ConnectedComponents | CosineSimilarity | LDA | TriangleCount")
	fs.IntVar(&g.Nodes, "nodes", 30, "cluster size (m4.large-class nodes)")
	fs.Float64Var(&g.scale, "scale", 1.0, "workload duration scale")
	fs.StringVar(&g.Spec, "spec", "", "JSON job spec (overrides -workload)")
	return g
}

// Cluster returns the -nodes cluster.
func (g *Jobs) Cluster() *cluster.Cluster { return cluster.NewM4LargeCluster(g.Nodes) }

// Job loads the -spec job, or else the -workload job at -scale, on c.
func (g *Jobs) Job(c *cluster.Cluster) (*workload.Job, error) {
	if g.Spec != "" {
		spec, err := jobspec.Load(g.Spec)
		if err != nil {
			return nil, err
		}
		return spec.Job(c)
	}
	if g.workload == "ALS" {
		return workload.ALS(c, g.scale), nil
	}
	if job := workload.PaperWorkloads(c, g.scale)[g.workload]; job != nil {
		return job, nil
	}
	return nil, fmt.Errorf("unknown workload %q", g.workload)
}

// Log is the diagnostics flag group: -log-level sets the floor of the JSON
// log lines written to stderr.
type Log struct {
	name  string
	level slog.Level
}

// LogFlags registers -log-level on fs.
func LogFlags(fs *FlagSet) *Log {
	g := &Log{}
	fs.StringVar(&g.name, "log-level", "info", "stderr log floor: debug, info, warn or error")
	fs.Check(func() (err error) {
		g.level, err = obs.ParseLogLevel(g.name)
		return err
	})
	return g
}

// Logger returns the stderr logger at -log-level.
func (g *Log) Logger() *slog.Logger { return obs.NewLogger(os.Stderr, g.level) }
