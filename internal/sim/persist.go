package sim

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"

	"delaystage/internal/ckpt"
	"delaystage/internal/dag"
)

// Crash-safe persistence: a Stepper — paused between events — can be
// written to disk and read back in a different process, where stepping on
// finishes with a result bit-identical to the uninterrupted run. A driver
// that checkpoints on a simulated-time cadence (cmd/simulate's
// -checkpoint-every) alternates AdvanceBefore and WriteFile, so a
// SIGKILLed process resumes from its last checkpoint. Everything rides on
// the guarantee the stepper already provides (it only ever rests at
// idempotent event boundaries); this file adds a byte encoding of the
// paused engine.
//
// The encoding is exact: every float is stored as its IEEE-754 bit
// pattern, every slice records whether it was nil or empty, and maps are
// written in sorted key order. A read-back engine is field-for-field the
// engine that was written, so the continued trajectory — including every
// floating-point accumulation — matches the uninterrupted run.
//
// Identity is enforced in three layers by the ckpt envelope: a kind
// string ("sim-snapshot"), an encoding version, and a fingerprint of the
// full run configuration (cluster, options, fault plan, jobs, delays,
// arrivals). Reading under any other configuration is rejected — a
// checkpoint is only valid against the exact run that produced it.

const (
	snapshotKind = "sim-snapshot"
	// snapshotVersion numbers the payload layout. A file of any other
	// version reads as a *ckpt.FormatError, which callers treat as "no
	// checkpoint" and start fresh.
	snapshotVersion = 3
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

// WriteFile serializes the paused world to path (atomically: temp file
// plus rename), framed in a ckpt envelope carrying the configuration
// fingerprint. The stepper is only read and stays usable afterwards. A
// finished stepper, or one whose options carry an Observer or Watchdog,
// cannot be written.
func (s *Stepper) WriteFile(path string) error {
	if s.done {
		return fmt.Errorf("sim: write of a finished run")
	}
	if err := checkDetached(s.e.opt); err != nil {
		return err
	}
	return ckpt.WriteFile(path, ckpt.Envelope{
		Kind:        snapshotKind,
		Version:     snapshotVersion,
		Fingerprint: fingerprintPrepared(s.e.opt, s.e.runs),
		Payload:     encodeEngine(s.e, s.horizon),
	})
}

// ReadStepperFile loads a stepper written by WriteFile, positioned where
// the writer stood and with the writer's Inject horizon. opt and runs must
// describe the same configuration the stepper ran under (injected runs
// included, in order) — they rebuild the immutable wiring (graphs,
// capacities, fault draws) the encoding deliberately omits — and are
// verified against the stored fingerprint; any mismatch, corruption or
// truncation is a *ckpt.FormatError. A missing file surfaces as the os
// error, so callers that want resume-or-start semantics check
// os.IsNotExist.
func ReadStepperFile(path string, opt Options, runs []JobRun) (*Stepper, error) {
	if err := checkDetached(opt); err != nil {
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
	if err := env.Expect(snapshotKind, snapshotVersion, fingerprintPrepared(opt, runs)); err != nil {
		if fe, ok := err.(*ckpt.FormatError); ok {
			fe.Path = path
		}
		return nil, err
	}
	e, horizon, err := decodeEngine(env.Payload, opt, runs)
	if err != nil {
		if fe, ok := err.(*ckpt.FormatError); ok {
			fe.Path = path
		}
		return nil, err
	}
	return &Stepper{e: e, horizon: horizon}, nil
}

// ---- engine encoding ----------------------------------------------------

// encodeEngine serializes every mutable engine field. Immutable inputs —
// capacities, graphs, profiles, availability wiring, fault draws (all
// hash-based), node slowdowns — are reconstructed from the configuration
// on decode and are covered by the fingerprint instead.
func encodeEngine(e *engine, horizon float64) []byte {
	var w wbuf
	w.f64(horizon)
	w.int(e.seq)
	w.f64(e.now)
	w.f64(e.cpuBusyInt)
	w.f64(e.netBytesInt)
	w.f64(e.diskBytesInt)
	w.int(e.jobsLeft)
	w.ints(e.stagesLeft)
	w.bools(e.failed)
	w.ints(e.faultCount)
	w.bools(e.blacklisted)
	w.int(e.nBlacklisted)

	// Stage states, in slab order; keys are written for verification
	// against the freshly wired engine on decode.
	w.int(len(e.states))
	for i := range e.states {
		st := &e.states[i]
		w.key(st.key)
		w.int(st.parentsLeft)
		w.int(st.readsLeft)
		w.int(st.computeLeft)
		w.int(st.writesLeft)
		w.ints(st.pendingCompute)
		w.bool(st.submitted)
		w.bool(st.prefetched)
		w.f64(st.computeDone)
		w.f64(st.computeTot)
		w.timeline(st.tl)
		w.bool(st.readyValid)
		w.bool(st.complete)
		w.int(st.retries)
		w.f64s(st.compDurs)
		w.bool(st.specDone != nil)
		if st.specDone != nil {
			homes := make([]int, 0, len(st.specDone))
			for h := range st.specDone {
				homes = append(homes, h)
			}
			sort.Ints(homes)
			w.int(len(homes))
			for _, h := range homes {
				w.int(h)
			}
		}
		w.int(st.recomputeHolds)
		w.f64(st.submitAt)
		w.bool(st.hasOverride)
		if st.hasOverride {
			w.f64(st.delayOverride)
		}
	}

	// Live items in e.items order; rivals as indices (-1 = none).
	idx := make(map[*item]int, len(e.items))
	for i, it := range e.items {
		idx[it] = i
	}
	w.int(len(e.items))
	for _, it := range e.items {
		w.key(it.key)
		w.int(it.home)
		w.int(it.node)
		w.int(int(it.ph))
		w.f64(it.remaining)
		w.f64(it.rate)
		w.bool(it.capped)
		w.f64(it.done)
		w.f64(it.volume)
		w.f64(it.capRate)
		w.f64(it.execUsed)
		w.int(it.attempt)
		w.f64(it.failAt)
		w.f64(it.slow)
		w.bool(it.recompute)
		w.bool(it.spec)
		if it.rival != nil {
			w.int(idx[it.rival])
		} else {
			w.int(-1)
		}
		w.bool(it.cancelled)
		w.f64(it.startAt)
	}

	// Per-node phase buckets as e.items index lists (their subsequence
	// order fixes the floating-point accumulation order), then the link
	// read buckets (none without links), plus dirty flags.
	bucket := func(bk []*item) {
		w.int(len(bk))
		for _, it := range bk {
			w.int(idx[it])
		}
	}
	for wk := 0; wk < e.nNodes; wk++ {
		bucket(e.computeBk[wk])
		bucket(e.readBk[wk])
		bucket(e.writeBk[wk])
	}
	for _, bk := range e.readBk[e.nNodes:] {
		bucket(bk)
	}
	w.bools(e.dirtyC)
	w.bools(e.dirtyR)
	w.bools(e.dirtyW)

	// Timer heap in array order (the heap invariant survives verbatim).
	w.int(len(e.timers))
	for _, t := range e.timers {
		w.f64(t.at)
		w.int(t.seq)
		w.int(int(t.kind))
		w.key(e.timerKey(t))
		w.int(int(t.job))
		w.int(int(t.node))
		w.int(int(t.home))
		w.int(int(t.ph))
		w.int(int(t.attempt))
		w.bool(t.recomp)
	}

	// Result in progress. Its timelines are not written: finalize builds
	// them from the stage slab, so a running Result has none.
	r := e.res
	w.f64s(r.JobEnd)
	w.f64s(r.JobStart)
	w.f64(r.Makespan)
	w.series(r.Node.CPUBusy)
	w.series(r.Node.NetRate)
	w.series(r.Node.DiskRate)
	w.series(r.Cluster.CPUBusy)
	w.series(r.Cluster.NetRate)
	w.series(r.Cluster.DiskRate)
	w.int(len(r.Occupancy))
	for _, seg := range r.Occupancy {
		w.segment(seg)
	}
	w.f64(r.AvgCPUUtil)
	w.f64(r.AvgNetUtil)
	w.f64(r.AvgDiskUtil)
	w.f64(r.AvgNetRate)
	w.int(r.Events)
	w.int(r.Retries)
	w.int(r.SpecLaunched)
	w.int(r.SpecWins)
	w.int(r.Blacklisted)
	for _, err := range r.JobErrors {
		if err == nil {
			w.bool(false)
			continue
		}
		w.bool(true)
		sf, ok := err.(*StageFailureError)
		if !ok {
			// failJob only ever produces *StageFailureError; anything else
			// would be a new failure type this encoder must learn about.
			panic(fmt.Sprintf("sim: cannot serialize job error %T", err))
		}
		w.int(sf.Job)
		w.i64(int64(sf.Stage))
		w.int(sf.Node)
		w.int(sf.Attempts)
	}

	// Open occupancy segments, sorted by key.
	oks := make([]skey, 0, len(e.occOpen))
	for k := range e.occOpen {
		oks = append(oks, k)
	}
	sortSkeys(oks)
	w.int(len(oks))
	for _, k := range oks {
		w.key(k)
		w.segment(*e.occOpen[k])
	}

	// In-flight lineage recomputations, sorted by (key, node).
	rks := make([]recompKey, 0, len(e.recomps))
	for k := range e.recomps {
		rks = append(rks, k)
	}
	sort.Slice(rks, func(i, j int) bool {
		a, b := rks[i], rks[j]
		if a.key != b.key {
			return a.key.job < b.key.job || (a.key.job == b.key.job && a.key.stage < b.key.stage)
		}
		return a.node < b.node
	})
	w.int(len(rks))
	for _, k := range rks {
		w.key(k.key)
		w.int(k.node)
		held := e.recomps[k].held
		w.int(len(held))
		for _, h := range held {
			w.key(e.states[h].key)
		}
	}
	return w.b
}

// decodeEngine rebuilds an engine from an encoded payload: it constructs
// a fresh engine (newEngine + setup, which re-derives all immutable
// wiring), then overwrites every mutable field with the serialized state.
// opt must already be prepared. It also returns the encoded Inject horizon.
func decodeEngine(payload []byte, opt Options, runs []JobRun) (*engine, float64, error) {
	e := newEngine(opt, runs)
	e.setup()
	// setup() armed the t=0 world (arrival and crash timers); the
	// serialized state replaces all of it.
	e.timers = e.timers[:0]

	r := &rbuf{b: payload}
	horizon := r.f64()
	e.seq = r.int()
	e.now = r.f64()
	e.cpuBusyInt = r.f64()
	e.netBytesInt = r.f64()
	e.diskBytesInt = r.f64()
	e.jobsLeft = r.int()
	e.stagesLeft = r.ints()
	e.failed = r.bools()
	e.faultCount = r.ints()
	e.blacklisted = r.bools()
	e.nBlacklisted = r.int()
	if r.err == nil && (len(e.stagesLeft) != len(runs) || len(e.failed) != len(runs)) {
		return nil, 0, &ckpt.FormatError{Reason: "job count mismatch"}
	}

	nStates := r.int()
	if r.err == nil && nStates != len(e.states) {
		return nil, 0, &ckpt.FormatError{Reason: fmt.Sprintf("stage count %d, want %d", nStates, len(e.states))}
	}
	for i := 0; i < nStates && r.err == nil; i++ {
		st := &e.states[i]
		if k := r.key(); k != st.key {
			return nil, 0, &ckpt.FormatError{Reason: fmt.Sprintf("stage key %v, want %v", k, st.key)}
		}
		st.parentsLeft = r.int()
		st.readsLeft = r.int()
		st.computeLeft = r.int()
		st.writesLeft = r.int()
		st.pendingCompute = r.ints()
		st.submitted = r.bool()
		st.prefetched = r.bool()
		st.computeDone = r.f64()
		st.computeTot = r.f64()
		st.tl = r.timeline()
		st.readyValid = r.bool()
		st.complete = r.bool()
		st.retries = r.int()
		st.compDurs = r.f64s()
		if r.bool() {
			n := r.length()
			st.specDone = make(map[int]bool, n)
			for j := 0; j < n && r.err == nil; j++ {
				st.specDone[r.int()] = true
			}
		}
		st.recomputeHolds = r.int()
		st.submitAt = r.f64()
		if r.bool() {
			st.hasOverride, st.delayOverride = true, r.f64()
		}
	}

	nItems := r.length()
	rivals := make([]int, 0, nItems)
	for i := 0; i < nItems && r.err == nil; i++ {
		it := &item{}
		it.key = r.key()
		it.st = e.stateIdx(it.key)
		if r.err == nil && it.st < 0 {
			return nil, 0, &ckpt.FormatError{Reason: fmt.Sprintf("item for unknown stage %v", it.key)}
		}
		it.home = r.int()
		it.node = r.int()
		it.ph = phase(r.int())
		it.remaining = r.f64()
		it.rate = r.f64()
		it.capped = r.bool()
		it.done = r.f64()
		it.volume = r.f64()
		it.capRate = r.f64()
		it.execUsed = r.f64()
		it.attempt = r.int()
		it.failAt = r.f64()
		it.slow = r.f64()
		it.recompute = r.bool()
		it.spec = r.bool()
		rivals = append(rivals, r.int())
		it.cancelled = r.bool()
		it.startAt = r.f64()
		e.items = append(e.items, it)
	}
	for i, ri := range rivals {
		if ri < 0 {
			continue
		}
		if ri >= len(e.items) {
			return nil, 0, &ckpt.FormatError{Reason: "rival index out of range"}
		}
		e.items[i].rival = e.items[ri]
	}

	bucket := func(bk *[]*item) error {
		n := r.length()
		for j := 0; j < n && r.err == nil; j++ {
			ii := r.int()
			if ii < 0 || ii >= len(e.items) {
				return &ckpt.FormatError{Reason: "bucket index out of range"}
			}
			*bk = append(*bk, e.items[ii])
		}
		return nil
	}
	for wk := 0; wk < e.nNodes && r.err == nil; wk++ {
		for _, bk := range []*[]*item{&e.computeBk[wk], &e.readBk[wk], &e.writeBk[wk]} {
			if err := bucket(bk); err != nil {
				return nil, 0, err
			}
		}
	}
	for wk := e.nNodes; wk < len(e.readBk) && r.err == nil; wk++ {
		if err := bucket(&e.readBk[wk]); err != nil {
			return nil, 0, err
		}
	}
	e.dirtyC = r.bools()
	e.dirtyR = r.bools()
	e.dirtyW = r.bools()
	if r.err == nil && (len(e.dirtyC) != e.nNodes || len(e.dirtyR) != len(e.readBk) || len(e.dirtyW) != e.nNodes) {
		return nil, 0, &ckpt.FormatError{Reason: "dirty flag length mismatch"}
	}

	nTimers := r.length()
	for i := 0; i < nTimers && r.err == nil; i++ {
		var t timer
		t.at = r.f64()
		t.seq = r.int()
		t.kind = timerKind(r.int())
		if k := r.key(); t.kind == tSubmitStage || t.kind == tRetry {
			si := e.stateIdx(k)
			if r.err == nil && si < 0 {
				return nil, 0, &ckpt.FormatError{Reason: fmt.Sprintf("timer for unknown stage %v", k)}
			}
			t.st = int32(si)
		}
		t.job = r.int32()
		t.node = r.int32()
		t.home = r.int32()
		t.ph = phase(r.int())
		t.attempt = r.int32()
		t.recomp = r.bool()
		e.timers = append(e.timers, t)
	}

	res := e.res
	res.JobEnd = r.f64s()
	res.JobStart = r.f64s()
	res.Makespan = r.f64()
	res.Node.CPUBusy = r.series()
	res.Node.NetRate = r.series()
	res.Node.DiskRate = r.series()
	res.Cluster.CPUBusy = r.series()
	res.Cluster.NetRate = r.series()
	res.Cluster.DiskRate = r.series()
	nOcc := r.length()
	for i := 0; i < nOcc && r.err == nil; i++ {
		res.Occupancy = append(res.Occupancy, r.segment())
	}
	res.AvgCPUUtil = r.f64()
	res.AvgNetUtil = r.f64()
	res.AvgDiskUtil = r.f64()
	res.AvgNetRate = r.f64()
	res.Events = r.int()
	res.Retries = r.int()
	res.SpecLaunched = r.int()
	res.SpecWins = r.int()
	res.Blacklisted = r.int()
	if r.err == nil && (len(res.JobEnd) != len(runs) || len(res.JobStart) != len(runs)) {
		return nil, 0, &ckpt.FormatError{Reason: "result job count mismatch"}
	}
	for i := 0; i < len(runs) && r.err == nil; i++ {
		if !r.bool() {
			continue
		}
		sf := &StageFailureError{}
		sf.Job = r.int()
		sf.Stage = dag.StageID(r.i64())
		sf.Node = r.int()
		sf.Attempts = r.int()
		res.JobErrors[i] = sf
	}

	nOpen := r.length()
	for i := 0; i < nOpen && r.err == nil; i++ {
		k := r.key()
		seg := r.segment()
		e.occOpen[k] = &seg
	}
	nRec := r.length()
	for i := 0; i < nRec && r.err == nil; i++ {
		k := recompKey{key: r.key(), node: r.int()}
		nh := r.length()
		rs := &recompState{}
		for j := 0; j < nh && r.err == nil; j++ {
			h := e.stateIdx(r.key())
			if r.err == nil && h < 0 {
				return nil, 0, &ckpt.FormatError{Reason: "recompute holds an unknown stage"}
			}
			rs.held = append(rs.held, h)
		}
		e.recomps[k] = rs
	}

	if r.err != nil {
		return nil, 0, r.err
	}
	if r.off != len(r.b) {
		return nil, 0, &ckpt.FormatError{Reason: "trailing payload bytes"}
	}
	return e, horizon, nil
}

func sortSkeys(ks []skey) {
	sort.Slice(ks, func(i, j int) bool {
		if ks[i].job != ks[j].job {
			return ks[i].job < ks[j].job
		}
		return ks[i].stage < ks[j].stage
	})
}

// ---- byte-level encoding helpers ----------------------------------------

// wbuf appends little-endian fields; floats go as raw IEEE-754 bits so the
// decoded value is the identical float64 (NaN payloads included).
type wbuf struct{ b []byte }

func (w *wbuf) u64(v uint64) {
	w.b = append(w.b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}
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
func (w *wbuf) key(k skey) {
	w.int(k.job)
	w.i64(int64(k.stage))
}

// Slice writers record nil-ness explicitly: a resumed engine must
// DeepEqual the uninterrupted one, and nil vs empty is visible there.
func (w *wbuf) ints(s []int) {
	w.bool(s != nil)
	w.int(len(s))
	for _, v := range s {
		w.int(v)
	}
}
func (w *wbuf) f64s(s []float64) {
	w.bool(s != nil)
	w.int(len(s))
	for _, v := range s {
		w.f64(v)
	}
}
func (w *wbuf) bools(s []bool) {
	w.bool(s != nil)
	w.int(len(s))
	for _, v := range s {
		w.bool(v)
	}
}
func (w *wbuf) series(s Series) {
	w.bool(s != nil)
	w.int(len(s))
	for _, p := range s {
		w.f64(p.T)
		w.f64(p.V)
	}
}
func (w *wbuf) timeline(tl StageTimeline) {
	w.int(tl.JobIndex)
	w.i64(int64(tl.Stage))
	w.f64(tl.Ready)
	w.f64(tl.Start)
	w.f64(tl.ReadEnd)
	w.f64(tl.ComputeEnd)
	w.f64(tl.End)
	w.int(tl.Retries)
}
func (w *wbuf) segment(seg OccupancySegment) {
	w.int(seg.JobIndex)
	w.i64(int64(seg.Stage))
	w.f64(seg.From)
	w.f64(seg.To)
	w.f64(seg.Executors)
}

// rbuf reads wbuf-encoded fields, latching the first error; reads after
// an error return zero values so decoders can check err once at the end
// (length-guided loops must still break on err to terminate).
type rbuf struct {
	b   []byte
	off int
	err error
}

func (r *rbuf) fail() {
	if r.err == nil {
		r.err = &ckpt.FormatError{Reason: "truncated payload"}
	}
}
func (r *rbuf) u64() uint64 {
	if r.err != nil {
		return 0
	}
	if r.off+8 > len(r.b) {
		r.fail()
		return 0
	}
	v := uint64(r.b[r.off]) | uint64(r.b[r.off+1])<<8 | uint64(r.b[r.off+2])<<16 |
		uint64(r.b[r.off+3])<<24 | uint64(r.b[r.off+4])<<32 | uint64(r.b[r.off+5])<<40 |
		uint64(r.b[r.off+6])<<48 | uint64(r.b[r.off+7])<<56
	r.off += 8
	return v
}
func (r *rbuf) i64() int64 { return int64(r.u64()) }
func (r *rbuf) int() int   { return int(r.i64()) }

// length reads a collection length. Every element takes at least one
// byte, so a length past the bytes left is a truncated payload: no
// length, however corrupt, makes the decoder allocate more than the file
// could hold.
func (r *rbuf) length() int {
	n := r.int()
	if r.err == nil && (n < 0 || n > len(r.b)-r.off) {
		r.fail()
		return 0
	}
	return n
}

// int32 reads an int field stored in a narrower engine field. A value out
// of int32 range is a format error, never a silent truncation.
func (r *rbuf) int32() int32 {
	v := r.i64()
	if v != int64(int32(v)) {
		if r.err == nil {
			r.err = &ckpt.FormatError{Reason: fmt.Sprintf("value %d out of int32 range", v)}
		}
		return 0
	}
	return int32(v)
}
func (r *rbuf) f64() float64 { return math.Float64frombits(r.u64()) }
func (r *rbuf) bool() bool {
	if r.err != nil {
		return false
	}
	if r.off+1 > len(r.b) {
		r.fail()
		return false
	}
	v := r.b[r.off]
	r.off++
	return v != 0
}
func (r *rbuf) key() skey {
	j := r.int()
	s := r.i64()
	return skey{job: j, stage: dag.StageID(s)}
}
func (r *rbuf) ints() []int {
	if !r.bool() {
		r.int()
		return nil
	}
	n := r.length()
	if r.err != nil {
		return nil
	}
	s := make([]int, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		s = append(s, r.int())
	}
	return s
}
func (r *rbuf) f64s() []float64 {
	if !r.bool() {
		r.int()
		return nil
	}
	n := r.length()
	if r.err != nil {
		return nil
	}
	s := make([]float64, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		s = append(s, r.f64())
	}
	return s
}
func (r *rbuf) bools() []bool {
	if !r.bool() {
		r.int()
		return nil
	}
	n := r.length()
	if r.err != nil {
		return nil
	}
	s := make([]bool, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		s = append(s, r.bool())
	}
	return s
}
func (r *rbuf) series() Series {
	if !r.bool() {
		r.int()
		return nil
	}
	n := r.length()
	if r.err != nil {
		return nil
	}
	s := make(Series, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		t := r.f64()
		v := r.f64()
		s = append(s, Sample{T: t, V: v})
	}
	return s
}
func (r *rbuf) timeline() StageTimeline {
	var tl StageTimeline
	tl.JobIndex = r.int()
	tl.Stage = dag.StageID(r.i64())
	tl.Ready = r.f64()
	tl.Start = r.f64()
	tl.ReadEnd = r.f64()
	tl.ComputeEnd = r.f64()
	tl.End = r.f64()
	tl.Retries = r.int()
	return tl
}
func (r *rbuf) segment() OccupancySegment {
	var seg OccupancySegment
	seg.JobIndex = r.int()
	seg.Stage = dag.StageID(r.i64())
	seg.From = r.f64()
	seg.To = r.f64()
	seg.Executors = r.f64()
	return seg
}
