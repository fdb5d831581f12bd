package sim

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"sort"

	"delaystage/internal/ckpt"
	"delaystage/internal/dag"
)

// Crash-safe persistence: a Stepper paused at an AdvanceBefore boundary
// can be written to disk and rebuilt in a different process, where
// stepping on finishes with a result bit-identical to the uninterrupted
// run. A driver that checkpoints on a simulated-time cadence
// (cmd/simulate's -checkpoint-every) alternates AdvanceBefore and
// WriteFile, so a SIGKILLed process resumes from its last checkpoint.
//
// A checkpoint stores where the world stands, not what it holds: the
// Inject horizon, the event count and the clock. The engine is
// deterministic, so the reader rebuilds the world by replay — a fresh
// stepper over the same configuration advanced to the same horizon — and
// the stored event count and clock bits confirm it landed where the
// writer stood. An Observer on the reader sees the replayed prefix, so a
// resumed run's event stream is the uninterrupted run's.
//
// Identity is enforced in three layers by the ckpt envelope: a kind
// string ("sim-snapshot"), a payload version, and a fingerprint of the
// full run configuration (cluster, options, fault plan, jobs, delays,
// arrivals). Reading under any other configuration is rejected — a
// checkpoint is only valid against the exact run that produced it. The
// fingerprint cannot see what the configuration does not hold, so
// WriteFile refuses the worlds replay cannot rebuild: one moved past a
// boundary by StepNextEvent or PeekNextEventTime, one whose delays a
// Fork revised, one under a Watchdog, and one holding a masked run
// (JobRun.Active: a planner's what-if world, never checkpointed).

const (
	snapshotKind = "sim-snapshot"
	// snapshotVersion numbers the payload layout. A file of any other
	// version reads as a *ckpt.FormatError, which callers treat as "no
	// checkpoint" and start fresh.
	snapshotVersion = 4
)

// fingerprintPrepared hashes everything that determines a run's
// trajectory: cluster capacities, simulation options, the fault plan,
// each job's graph, profiles, delays and arrival, and — only when set, so
// a configuration without them hashes the bytes it always did — the links
// and placements. Two configurations with
// equal fingerprints produce bit-identical runs. The options must already
// be prepared (NewStepper and ReadStepperFile both normalize through
// prepare, so writer and reader hash the configuration they validated).
func fingerprintPrepared(opt Options, runs []JobRun) uint64 {
	var w wbuf
	for _, n := range opt.Cluster.Nodes {
		w.int(n.ID)
		w.int(n.Executors)
		w.f64(n.NetBW)
		w.f64(n.DiskBW)
	}
	w.bool(opt.AggShuffle)
	w.f64(opt.AggShuffleOverhead)
	w.f64(opt.ContentionOverhead)
	w.bool(opt.FairByJob)
	w.int(opt.TrackNode)
	w.bool(opt.TrackOccupancy)
	w.bool(opt.TrackCluster)
	w.f64(opt.MaxTime)
	w.int(opt.MaxAttempts)
	w.f64(opt.RetryBackoff)
	w.bool(opt.Speculation)
	w.f64(opt.SpeculationThreshold)
	w.int(opt.BlacklistAfter)
	w.bool(opt.Faults != nil)
	if opt.Faults != nil {
		p := opt.Faults.Plan()
		w.i64(p.Seed)
		w.f64(p.TaskFailureProb)
		w.f64(p.StragglerFrac)
		w.f64(p.StragglerFactor)
		w.f64(p.MispredictNoise)
		w.int(len(p.Crashes))
		for _, c := range p.Crashes {
			w.int(c.Node)
			w.f64(c.At)
		}
		w.f64(p.SlowNodeFrac)
		w.f64(p.SlowNodeFactor)
		w.f64(p.NodeMTTF)
		w.f64(p.MTTFHorizon)
		w.int(p.RackSize)
		w.int(len(p.RackCrashes))
		for _, rc := range p.RackCrashes {
			w.int(rc.Rack)
			w.f64(rc.At)
		}
	}
	w.int(len(runs))
	for _, r := range runs {
		w.f64(r.Arrival)
		w.str(r.Job.Name)
		ids := r.Job.Graph.StagesView()
		w.int(len(ids))
		for _, id := range ids {
			w.i64(int64(id))
			parents := r.Job.Graph.Stage(id).Parents
			w.int(len(parents))
			for _, p := range parents {
				w.i64(int64(p))
			}
			p := r.Job.Profiles[id]
			w.i64(p.ShuffleIn)
			w.i64(p.ShuffleOut)
			w.f64(p.ProcRate)
			w.f64(p.Skew)
			w.int(p.Tasks)
		}
		dids := make([]dag.StageID, 0, len(r.Delays))
		for id := range r.Delays {
			dids = append(dids, id)
		}
		sort.Slice(dids, func(i, j int) bool { return dids[i] < dids[j] })
		w.int(len(dids))
		for _, id := range dids {
			w.i64(int64(id))
			w.f64(r.Delays[id])
		}
	}
	placed := false
	for _, r := range runs {
		placed = placed || r.Placement != nil
	}
	if opt.Links != nil || placed {
		w.str("links+placement")
		w.bool(opt.Links != nil)
		for _, row := range opt.Links {
			w.f64s(row)
		}
		for _, r := range runs {
			w.bool(r.Placement != nil)
			if r.Placement != nil {
				for _, id := range r.Job.Graph.StagesView() {
					w.int(r.Placement[id])
				}
			}
		}
	}
	h := fnv.New64a()
	h.Write(w.b)
	return h.Sum64()
}

// WriteFile stores the paused world's position to path (atomically:
// temp file plus rename), framed in a ckpt envelope carrying the
// configuration fingerprint. The stepper is only read and stays usable
// afterwards. It refuses a finished stepper and every world replay cannot
// rebuild from the configuration alone: one not standing at a finite
// AdvanceBefore boundary (it moved by StepNextEvent or PeekNextEventTime,
// or advanced to +Inf), one with a stage whose delay a Fork revised, one
// under a Watchdog and one holding a masked run.
func (s *Stepper) WriteFile(path string) error {
	if s.done {
		return fmt.Errorf("sim: write of a finished run")
	}
	e := s.e
	if e.opt.Watchdog != nil {
		return errWatchdogPersist
	}
	if err := checkUnmasked(e.runs); err != nil {
		return err
	}
	if math.IsInf(s.horizon, 1) {
		return fmt.Errorf("sim: write of a world that is not standing at a finite AdvanceBefore boundary")
	}
	for i := range e.states {
		if e.states[i].hasOverride {
			return fmt.Errorf("sim: write of a world whose delays a Fork revised")
		}
	}
	return ckpt.WriteFile(path, ckpt.Envelope{
		Kind:        snapshotKind,
		Version:     snapshotVersion,
		Fingerprint: fingerprintPrepared(e.opt, e.runs),
		Payload:     position(s.horizon, e.res.Events, e.now),
	})
}

// position is the checkpoint payload of a world standing at (horizon,
// events, clock): payloadLen bytes, each value eight little-endian bytes
// (the floats as their IEEE-754 bits).
func position(horizon float64, events int, clock float64) []byte {
	var w wbuf
	w.f64(horizon)
	w.int(events)
	w.f64(clock)
	return w.b
}

const payloadLen = 24

// checkUnmasked refuses a run list holding a masked run: the checkpoint
// fingerprint does not hash masks, and no masked world is ever written.
func checkUnmasked(runs []JobRun) error {
	for i, r := range runs {
		if r.Active != nil {
			return fmt.Errorf("sim: job %d is masked: a masked run cannot be persisted", i)
		}
	}
	return nil
}

var errWatchdogPersist = errors.New("sim: a world with a Watchdog cannot be persisted (watchdog state cannot be replayed)")

// ReadStepperFile rebuilds a stepper written by WriteFile, positioned
// where the writer stood and with the writer's Inject horizon. opt and
// runs must describe the same configuration the stepper ran under
// (injected runs included, in order); they are verified against the
// stored fingerprint, and the world is rebuilt by replaying them to the
// stored horizon. A mismatch, corruption, truncation, or a replay that
// does not land on the stored event count and clock is a
// *ckpt.FormatError. A missing file surfaces as the os error, so callers
// that want resume-or-start semantics check os.IsNotExist. An Observer in
// opt receives the replayed prefix's events exactly once, and only from
// a replay that is known to land: the file is first proved by a replay
// without it.
func ReadStepperFile(path string, opt Options, runs []JobRun) (*Stepper, error) {
	if opt.Watchdog != nil {
		return nil, errWatchdogPersist
	}
	if err := checkUnmasked(runs); err != nil {
		return nil, err
	}
	opt, err := prepare(opt, runs)
	if err != nil {
		return nil, err
	}
	env, err := ckpt.ReadFile(path)
	if err != nil {
		return nil, err
	}
	err = env.Expect(snapshotKind, snapshotVersion, fingerprintPrepared(opt, runs))
	var s *Stepper
	if err == nil {
		detached := opt
		detached.Observer = nil
		s, err = replay(detached, runs, env.Payload)
	}
	if err == nil && opt.Observer != nil {
		s.e.release()
		s, err = replay(opt, runs, env.Payload)
	}
	if fe, ok := err.(*ckpt.FormatError); ok {
		fe.Path = path
	}
	return s, err
}

// replay rebuilds the world a checkpoint payload describes: a fresh
// stepper over (opt, runs) advanced to the stored horizon, which must
// land on the stored event count and clock bits.
func replay(opt Options, runs []JobRun, p []byte) (*Stepper, error) {
	if len(p) != payloadLen {
		return nil, &ckpt.FormatError{Reason: fmt.Sprintf("payload of %d bytes, want %d", len(p), payloadLen)}
	}
	horizon := math.Float64frombits(binary.LittleEndian.Uint64(p))
	events := int64(binary.LittleEndian.Uint64(p[8:]))
	clock := binary.LittleEndian.Uint64(p[16:])
	if !(horizon >= 0) || math.IsInf(horizon, 1) {
		return nil, &ckpt.FormatError{Reason: fmt.Sprintf("horizon %v is not a finite AdvanceBefore bound", horizon)}
	}
	s, err := NewStepper(opt, runs)
	if err != nil {
		return nil, err
	}
	if err := s.AdvanceBefore(horizon); err != nil {
		return nil, &ckpt.FormatError{Reason: fmt.Sprintf("replay to t=%v: %v", horizon, err)}
	}
	if int64(s.Events()) != events || math.Float64bits(s.Clock()) != clock {
		return nil, &ckpt.FormatError{Reason: fmt.Sprintf("replay to t=%v stands at event %d, t=%v; the checkpoint at event %d, t=%v",
			horizon, s.Events(), s.Clock(), events, math.Float64frombits(clock))}
	}
	return s, nil
}

// wbuf appends the little-endian fields of a checkpoint payload and of
// what fingerprintPrepared hashes; floats go as raw IEEE-754 bits.
type wbuf struct{ b []byte }

func (w *wbuf) u64(v uint64)  { w.b = binary.LittleEndian.AppendUint64(w.b, v) }
func (w *wbuf) i64(v int64)   { w.u64(uint64(v)) }
func (w *wbuf) int(v int)     { w.i64(int64(v)) }
func (w *wbuf) f64(v float64) { w.u64(math.Float64bits(v)) }
func (w *wbuf) bool(v bool) {
	if v {
		w.b = append(w.b, 1)
	} else {
		w.b = append(w.b, 0)
	}
}
func (w *wbuf) str(s string) {
	w.int(len(s))
	w.b = append(w.b, s...)
}
func (w *wbuf) f64s(s []float64) {
	w.bool(s != nil)
	w.int(len(s))
	for _, v := range s {
		w.f64(v)
	}
}
